// Package ironman is the public API of this repository: a Go
// implementation of PCG-style correlated-OT extension (Ferret) with the
// Ironman paper's hardware-aware m-ary GGM optimization, plus the
// simulation stack that reproduces the paper's evaluation (MICRO'25:
// "Ironman: Accelerating Oblivious Transfer Extension for
// Privacy-Preserving AI with Near-Memory Processing").
//
// The two-party protocol runs over any transport.Conn; this package
// re-exports in-process pipes and TCP framing, wraps the Ferret
// endpoints with buffering so callers can draw any number of
// correlations, and converts COTs into random and chosen-message OTs
// through the correlation-robust hash.
//
// Security model: semi-honest adversaries, 128-bit computational
// security. See DESIGN.md for scope notes.
package ironman

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync/atomic"

	"ironman/internal/aesprg"
	"ironman/internal/arith"
	"ironman/internal/block"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/gmw"
	"ironman/internal/obs"
	"ironman/internal/parallel"
	"ironman/internal/pool"
	"ironman/internal/transport"
)

// Block is the 128-bit unit of all OT payloads.
type Block = block.Block

// Conn is the two-party message channel.
type Conn = transport.Conn

// Stats re-exports traffic accounting.
type Stats = transport.Stats

// Pipe returns two connected in-process endpoints.
func Pipe() (Conn, Conn) { return transport.Pipe() }

// Tracer re-exports the phase-trace recorder (internal/obs) so callers
// outside the module can drive Options.Trace.
type Tracer = obs.Tracer

// NewTracer returns an enabled trace recorder; hand it to
// Options.Trace on any number of endpoints (thread ids keep the two
// protocol roles apart) and serialize with Tracer.WriteFile.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewTCPConn frames an established network connection.
func NewTCPConn(nc net.Conn) Conn { return transport.NewTCP(nc) }

// Params is a Table 4 parameter set name: "2^20" .. "2^24".
type Params = ferret.Params

// ParamSets lists the five Table 4 rows.
func ParamSets() []Params { return append([]Params(nil), ferret.Table4...) }

// ParamsByName resolves a set by name.
func ParamsByName(name string) (Params, error) { return ferret.ParamsByName(name) }

// Options tunes a protocol endpoint.
type Options struct {
	// Backend selects the OT-extension protocol family by name:
	// "ferret" (PCG-style LPN, the paper's design point and the
	// default) or "softspoken" (small-field subfield-VOLE, one message
	// flight per batch). "" selects the default. Both peers must pick
	// the same backend; see the "Extension backends" section of
	// DESIGN.md for the trade-offs and internal/extension for the
	// contract.
	Backend string
	// FourAryChaCha selects the Ironman tree construction (default);
	// set to false for the classic binary AES construction (on the
	// softspoken backend trees are always binary AES and this is
	// ignored).
	FourAryChaCha bool
	// Workers caps the goroutines the Extend hot path's local phases
	// use — the rank-parallel LPN encode, concurrent GGM tree
	// expansion, and the batched correlation-robust hash of the
	// OT-conversion helpers. 0 — the default — selects
	// runtime.GOMAXPROCS; 1 is the strictly sequential path. The wire
	// transcript is byte-identical for every value, so the two peers
	// may use different worker counts.
	Workers int
	// Prefetch is the number of Extend batches a background worker
	// keeps generated ahead of demand (see internal/pool). 0 — the
	// default — draws synchronously on the calling goroutine.
	//
	// With Prefetch > 0 protocol iterations run on a background
	// goroutine, so the conn must be dedicated to correlation
	// generation: SendChosen/ReceiveChosen on the same conn while the
	// endpoint is open would interleave frames with an in-flight
	// iteration, and are rejected with ErrConnBusy (use a second conn
	// for the chosen-OT exchange). Endpoints from NewDealtPair share
	// one lockstep generator, so any draw pattern is safe. Network
	// endpoints (NewSender/NewReceiver) prefetch independently: give
	// both peers the same Prefetch, and note that a single draw larger
	// than the prefetched window still needs the peer drawing
	// concurrently — exactly like the synchronous path, one side alone
	// cannot run the interactive protocol. To shut down, close the
	// conn first (interrupting any in-flight background iteration) and
	// then call Close.
	Prefetch int
	// MaxBuffered caps how many correlations a dealt pair's undrawn
	// half may retain before one-sided draws fail with ErrRetained
	// (correlations are pairwise, so the lagging half keeps every
	// batch until drawn). 0 selects Prefetch+8 batches; negative
	// disables the cap. Only meaningful for NewDealtPair endpoints
	// with Prefetch > 0.
	MaxBuffered int
	// Trace, when non-nil, records the Extend phase timeline (GGM
	// expansion, puncture flights, LPN encode) plus the conversion
	// hash ("crhf.hash") of this endpoint into a Chrome trace-event
	// document (internal/obs; write it with Tracer.WriteFile and open
	// in chrome://tracing or Perfetto). Tracing never touches the wire
	// transcript; nil — the default — compiles down to a nil check on
	// the hot paths.
	Trace *obs.Tracer
	// Seed, when non-zero, derives every endpoint-local random draw
	// from deterministic streams — NOT secure; the backend-parity and
	// determinism tests and the benchmark harness use it to make a
	// dealt run a pure function of (delta, params, options).
	Seed Block
}

func (o Options) extOpts() extension.Options {
	return extension.Options{
		Workers: o.Workers, Trace: o.Trace, Seed: o.Seed,
		BinaryAES: !o.FourAryChaCha,
	}
}

// backend resolves Options.Backend against the registry.
func (o Options) backend() (extension.Backend, error) {
	return extension.ByName(o.Backend)
}

func (o Options) poolCfg() pool.Config {
	return pool.Config{Depth: o.Prefetch, MaxBuffered: o.MaxBuffered}
}

// ErrRetained is returned by a dealt-pair draw whose paired half has
// hit Options.MaxBuffered: generating more would grow the undrawn
// half without bound. Drain the other endpoint or raise the cap.
var ErrRetained = pool.ErrRetained

// DefaultOptions is the Ironman design point.
func DefaultOptions() Options { return Options{FourAryChaCha: true} }

// PoolStats is one endpoint's correlation-buffer counters: how many
// correlations the protocol generated and dispensed, how many Extend
// refills ran, and how long draws spent blocked on generation.
type PoolStats = pool.Stats

// Sender produces correlations r0/r1 = r0 ⊕ Δ and converts them to OTs.
// Its buffer is a standalone prefetching pool for network endpoints, or
// the sender half of a shared lockstep pool.Dealt for dealt pairs.
type Sender struct {
	ext  extension.Sender
	p    *pool.Sender
	h    *aesprg.Hash
	otct uint64
	// conn is the endpoint's protocol conn; busy marks it off-limits to
	// chosen-OT calls while a prefetch worker puts traffic on it
	// (atomic: Close clears it concurrently with chosen-OT calls).
	// peerConn is additionally set on dealt-pair endpoints, whose
	// shared lockstep generator owns BOTH pipe ends — the pair then
	// shares one busy flag, since closing either half stops the
	// generator for both.
	conn     Conn
	peerConn Conn
	busy     *atomic.Bool
	workers  int
	trace    *obs.Tracer
}

// Receiver holds choice bits and r_b blocks.
type Receiver struct {
	ext      extension.Receiver
	p        *pool.Receiver
	h        *aesprg.Hash
	otct     uint64
	conn     Conn
	peerConn Conn
	busy     *atomic.Bool
	workers  int
	trace    *obs.Tracer
}

// newSender wraps an extension endpoint and the pool view it draws
// from; busy is shared by the two endpoints of a prefetching dealt pair.
func newSender(ext extension.Sender, p *pool.Sender, conn Conn, busy *atomic.Bool, opts Options) *Sender {
	return &Sender{
		ext: ext, p: p, h: aesprg.NewHash(),
		conn: conn, busy: busy, workers: opts.Workers, trace: opts.Trace,
	}
}

func newReceiver(ext extension.Receiver, p *pool.Receiver, conn Conn, busy *atomic.Bool, opts Options) *Receiver {
	return &Receiver{
		ext: ext, p: p, h: aesprg.NewHash(),
		conn: conn, busy: busy, workers: opts.Workers, trace: opts.Trace,
	}
}

// busyFlag is a fresh conn-busy flag: set while a prefetch worker
// owns the protocol conn.
func (o Options) busyFlag() *atomic.Bool {
	busy := new(atomic.Bool)
	busy.Store(o.Prefetch > 0)
	return busy
}

// NewSender initializes the sending endpoint (runs the selected
// backend's setup — base OTs plus its extension bootstrap — over conn;
// the peer must run NewReceiver concurrently with the same
// Options.Backend). delta is the global correlation; use RandomDelta
// for a fresh secret.
func NewSender(conn Conn, delta Block, params Params, opts Options) (*Sender, error) {
	b, err := opts.backend()
	if err != nil {
		return nil, err
	}
	ext, err := b.NewSender(conn, delta, params, opts.extOpts())
	if err != nil {
		return nil, err
	}
	return newSender(ext, pool.NewSender(ext.Extend, opts.poolCfg()), conn, opts.busyFlag(), opts), nil
}

// NewReceiver initializes the receiving endpoint.
func NewReceiver(conn Conn, params Params, opts Options) (*Receiver, error) {
	b, err := opts.backend()
	if err != nil {
		return nil, err
	}
	ext, err := b.NewReceiver(conn, params, opts.extOpts())
	if err != nil {
		return nil, err
	}
	return newReceiver(ext, pool.NewReceiver(ext.Extend, opts.poolCfg()), conn, opts.busyFlag(), opts), nil
}

// lockstepSource adapts extension.ExtendLockstep to the pool.Dealt
// refill shape.
func lockstepSource(es extension.Sender, er extension.Receiver) pool.DealtRefill {
	return func() ([]Block, []bool, []Block, error) {
		return extension.ExtendLockstep(es, er)
	}
}

// NewDealtPair returns an initialized pair whose first correlations
// come from a local trusted dealer instead of base OTs. Useful for
// single-process examples and benchmarks of post-init behaviour.
//
// With Options.Prefetch > 0 the pair shares a single lockstep
// generator (pool.Dealt): draws in any order are deadlock-free, and a
// one-sided draw is bounded only by Options.MaxBuffered (the undrawn
// half retains every generated batch; past the cap the draw fails
// with ErrRetained instead of exhausting memory). Because the
// generator is shared, Close on either endpoint stops prefetching for
// both.
func NewDealtPair(connS, connR Conn, delta Block, params Params, opts Options) (*Sender, *Receiver, error) {
	b, err := opts.backend()
	if err != nil {
		return nil, nil, err
	}
	es, er, err := b.DealPair(connS, connR, delta, params, opts.extOpts())
	if err != nil {
		return nil, nil, err
	}
	if opts.Prefetch > 0 {
		d := pool.NewDealt(lockstepSource(es, er), opts.poolCfg())
		// One flag for the pair: closing either half stops the shared
		// generator, so both conns become idle together.
		busy := opts.busyFlag()
		s := newSender(es, d.SenderHalf(), connS, busy, opts)
		r := newReceiver(er, d.ReceiverHalf(), connR, busy, opts)
		s.peerConn, r.peerConn = connR, connS
		return s, r, nil
	}
	return newSender(es, pool.NewSender(es.Extend, opts.poolCfg()), connS, opts.busyFlag(), opts),
		newReceiver(er, pool.NewReceiver(er.Extend, opts.poolCfg()), connR, opts.busyFlag(), opts), nil
}

// RandomDelta samples a fresh global correlation.
func RandomDelta() (Block, error) {
	sp, _, err := cot.RandomPools(0)
	if err != nil {
		return Block{}, err
	}
	return sp.Delta, nil
}

// Delta returns the sender's global correlation.
func (s *Sender) Delta() Block { return s.ext.Delta() }

// COTs returns n correlations' r0 blocks (r1 = r0 ⊕ Δ implied),
// running protocol iterations with the peer as needed. With
// Options.Prefetch > 0 iterations run ahead of demand on a background
// worker and warm draws return without touching the network.
func (s *Sender) COTs(n int) ([]Block, error) { return s.p.COTs(n) }

// PoolStats reports the endpoint's correlation-pool counters.
func (s *Sender) PoolStats() PoolStats { return s.p.Stats() }

// Close stops the endpoint's prefetch worker (a no-op for synchronous
// endpoints). Dealt-pair endpoints share their generator, so closing
// either endpoint stops draws on both — close only when the pair is
// done. It does not close the conn; for network endpoints close the
// conn FIRST when a background iteration may be in flight, or Close
// waits for an iteration the stopped peer will never answer.
func (s *Sender) Close() error {
	err := s.p.Close()
	// The worker is gone; the protocol conn is no longer off-limits
	// (chosen-OT calls now fail with the pool's closed error instead
	// of a stale ErrConnBusy).
	s.busy.Store(false)
	return err
}

// COTs returns n correlations: choice bits and r_b blocks.
func (r *Receiver) COTs(n int) ([]bool, []Block, error) { return r.p.COTs(n) }

// PoolStats reports the endpoint's correlation-pool counters.
func (r *Receiver) PoolStats() PoolStats { return r.p.Stats() }

// Close stops the endpoint's prefetch worker (a no-op for synchronous
// endpoints); the same shared-generator and conn-first caveats as
// Sender.Close apply.
func (r *Receiver) Close() error {
	err := r.p.Close()
	r.busy.Store(false)
	return err
}

// ErrConnBusy is returned by chosen-OT calls handed the conn of an
// endpoint whose prefetch worker is generating correlations on it: a
// background Extend iteration would interleave its frames with the
// chosen-OT exchange and corrupt both streams. Run chosen OTs on a
// second conn (or open the endpoint with Prefetch == 0). The guard
// compares conn identity, so it cannot see through wrappers — handing
// it the busy conn inside an adapter still corrupts the stream.
var ErrConnBusy = errors.New("ironman: conn carries background prefetch traffic; use a dedicated conn for chosen OTs")

// sameConn reports whether two Conn interface values are the same
// endpoint, without panicking when a caller-supplied adapter has an
// uncomparable dynamic type (such a value can never be one of this
// package's own conns, which are all pointers).
func sameConn(a, b Conn) bool {
	if t := reflect.TypeOf(a); t == nil || !t.Comparable() {
		return false
	}
	return a == b
}

// hashShardMin is the batch size below which the conversion hash runs
// inline: fanning goroutines out costs more than a few thousand
// fixed-key AES calls.
const hashShardMin = 4096

// hashWorkers resolves the worker count for an n-instance hash batch.
func hashWorkers(workers, n int) int {
	if n < hashShardMin {
		return 1
	}
	return workers
}

// RandomOTs converts n COTs into random OTs: the sender gets message
// pairs (H(r0), H(r1)); the matching Receiver.RandomOTs yields
// (choice, H(r_choice)). Figure 2's online conversion. Large batches
// shard the correlation-robust hash over worker-local chunks
// (Options.Workers).
func (s *Sender) RandomOTs(n int) ([][2]Block, error) {
	r0, err := s.COTs(n)
	if err != nil {
		return nil, err
	}
	out := make([][2]Block, n)
	base := s.otct
	s.otct += uint64(n)
	hash := s.trace.Span("crhf.hash", "convert", ferret.SenderTID)
	parallel.ShardIndexed(hashWorkers(s.workers, n), n, func(shard, lo, hi int) {
		sp := s.trace.Span("crhf.hash", "convert.worker", ferret.SenderTID+1+shard)
		for i := lo; i < hi; i++ {
			tweak := base + uint64(i)
			out[i][0] = s.h.Sum(r0[i], tweak)
			out[i][1] = s.h.Sum(r0[i].Xor(s.ext.Delta()), tweak)
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"ots": hi - lo})
		}
	})
	if hash.Live() {
		hash.EndArgs(map[string]any{"ots": n})
	}
	return out, nil
}

// RandomOTs is the receiver half of the conversion.
func (r *Receiver) RandomOTs(n int) ([]bool, []Block, error) {
	bits, blks, err := r.COTs(n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Block, n)
	base := r.otct
	r.otct += uint64(n)
	hash := r.trace.Span("crhf.hash", "convert", ferret.ReceiverTID)
	parallel.ShardIndexed(hashWorkers(r.workers, n), n, func(shard, lo, hi int) {
		sp := r.trace.Span("crhf.hash", "convert.worker", ferret.ReceiverTID+1+shard)
		for i := lo; i < hi; i++ {
			out[i] = r.h.Sum(blks[i], base+uint64(i))
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"ots": hi - lo})
		}
	})
	if hash.Live() {
		hash.EndArgs(map[string]any{"ots": n})
	}
	return bits, out, nil
}

// SendChosen runs chosen-message 1-of-2 OTs for the given pairs,
// consuming one fresh COT each (peer: ReceiveChosen). While the
// endpoint prefetches (Options.Prefetch > 0) its protocol conn is
// rejected with ErrConnBusy — background iterations own that stream.
func (s *Sender) SendChosen(conn Conn, msgs [][2]Block) error {
	if s.busy.Load() && (sameConn(conn, s.conn) || sameConn(conn, s.peerConn)) {
		return ErrConnBusy
	}
	pairs, err := s.RandomOTs(len(msgs))
	if err != nil {
		return err
	}
	// Beaver derandomization against the random OTs.
	ds, err := transport.RecvBits(conn, len(msgs))
	if err != nil {
		return err
	}
	cts := make([]Block, 2*len(msgs))
	for i := range msgs {
		p0, p1 := pairs[i][0], pairs[i][1]
		if ds[i] {
			p0, p1 = p1, p0
		}
		cts[2*i] = msgs[i][0].Xor(p0)
		cts[2*i+1] = msgs[i][1].Xor(p1)
	}
	return transport.SendBlocks(conn, cts)
}

// ReceiveChosen selects one message per pair. The same ErrConnBusy
// guard as SendChosen applies to prefetching endpoints.
func (r *Receiver) ReceiveChosen(conn Conn, choices []bool) ([]Block, error) {
	if r.busy.Load() && (sameConn(conn, r.conn) || sameConn(conn, r.peerConn)) {
		return nil, ErrConnBusy
	}
	bits, keys, err := r.RandomOTs(len(choices))
	if err != nil {
		return nil, err
	}
	ds := make([]bool, len(choices))
	for i := range ds {
		ds[i] = choices[i] != bits[i]
	}
	if err := transport.SendBits(conn, ds); err != nil {
		return nil, err
	}
	cts, err := transport.RecvBlocks(conn, 2*len(choices))
	if err != nil {
		return nil, err
	}
	out := make([]Block, len(choices))
	for i := range out {
		ct := cts[2*i]
		if choices[i] {
			ct = cts[2*i+1]
		}
		out[i] = ct.Xor(keys[i])
	}
	return out, nil
}

// GMW engine re-exports: the bitsliced two-party Boolean engine layered
// on chosen OTs (internal/gmw; see the GMW section of DESIGN.md for the
// round model and the level-batching contract). A GMWParty needs a
// correlation pool per OT direction, so a two-party deployment runs two
// endpoint pairs with swapped roles — the paper's §5.2 role-switching
// scenario.
type (
	// GMWParty is one side of a GMW evaluation.
	GMWParty = gmw.Party
	// GMWShare is the legacy bool-vector share layout.
	GMWShare = gmw.Share
	// GMWPacked is the word-packed (bitsliced) share layout.
	GMWPacked = gmw.PackedShare
	// GMWSenderPool / GMWReceiverPool hold materialized correlations
	// for one OT direction of a GMW party.
	GMWSenderPool   = cot.SenderPool
	GMWReceiverPool = cot.ReceiverPool
)

// ErrRoleConflict is returned by NewGMWParty when both parties claim
// (or both disclaim) the initiator role.
var ErrRoleConflict = gmw.ErrRoleConflict

// NewGMWParty assembles a GMW party from one pool per OT direction and
// runs the role handshake over conn (the peer must call it
// concurrently with the opposite first flag). Draw the pools with
// Sender.GMWPool / Receiver.GMWPool.
func NewGMWParty(conn Conn, out *GMWSenderPool, in *GMWReceiverPool, first bool) (*GMWParty, error) {
	return gmw.NewParty(conn, out, in, first)
}

// GMWPool materializes n correlations from this endpoint into a pool
// the GMW engine can consume (this party as OT sender).
func (s *Sender) GMWPool(n int) (*GMWSenderPool, error) {
	r0, err := s.COTs(n)
	if err != nil {
		return nil, err
	}
	return cot.NewSenderPool(s.ext.Delta(), r0), nil
}

// GMWPool materializes n correlations from this endpoint into a pool
// the GMW engine can consume (this party as OT receiver).
func (r *Receiver) GMWPool(n int) (*GMWReceiverPool, error) {
	bits, blocks, err := r.COTs(n)
	if err != nil {
		return nil, err
	}
	return cot.NewReceiverPool(bits, blocks)
}

// Circuit frontend re-exports: the Bristol-fashion frontend of the GMW
// engine (internal/circuit; see the "Circuit frontend" section of
// DESIGN.md). Load or build a circuit, compile it once into a level
// schedule, then evaluate any number of SIMD-packed instance batches:
// each AND level of the schedule is ONE batched OT exchange regardless
// of the instance count.
type (
	// Circuit is a parsed Bristol-fashion Boolean circuit.
	Circuit = circuit.Circuit
	// CircuitProgram is a compiled level schedule over a recycled
	// register file; safe for concurrent Eval calls on different
	// parties.
	CircuitProgram = circuit.Program
)

// LoadCircuit parses a Bristol circuit ("Bristol Fashion" or legacy
// "Bristol Format" headers; gzip is detected transparently).
func LoadCircuit(r io.Reader) (*Circuit, error) { return circuit.Load(r) }

// LoadCircuitFile is LoadCircuit over a file path.
func LoadCircuitFile(path string) (*Circuit, error) { return circuit.LoadFile(path) }

// CompileCircuit levels the gate DAG into a batched exchange schedule
// and allocates wires into recycled registers (memory scales with the
// maximum live-wire frontier, not the wire count).
func CompileCircuit(c *Circuit) (*CircuitProgram, error) { return circuit.Compile(c) }

// EvalCircuit securely evaluates a compiled circuit: inputs is one
// K-bit plane per circuit input wire (K = SIMD instance count; build
// the planes with ShareCircuitInputs), the result one K-bit plane per
// output wire. The peer must run EvalCircuit concurrently on the same
// program. The whole OT budget is preflighted against the party's
// pools before the first flight.
func EvalCircuit(p *GMWParty, prog *CircuitProgram, inputs []GMWPacked) ([]GMWPacked, error) {
	return prog.Eval(p, inputs, nil)
}

// ShareCircuitInputs XOR-shares K instances of one circuit input
// value: the owner passes its per-instance plaintext bits, the peer
// passes mine=false with the instance count (len(instances)) and nil
// bit vectors. For threshold inputs neither party knows, both pass
// their local share with mine=true.
func ShareCircuitInputs(instances [][]bool, bits int, mine bool) ([]GMWPacked, error) {
	return circuit.SharePlanes(instances, bits, mine)
}

// RevealCircuitOutputs opens output planes to both parties (one
// exchange) and unpacks them into K per-instance bit vectors.
func RevealCircuitOutputs(p *GMWParty, planes []GMWPacked) ([][]bool, error) {
	return circuit.Reveal(p, planes)
}

// CircuitAES128 returns the embedded AES-128 encryption circuit
// (plaintext, key -> ciphertext, 51200 ANDs, depth 40); inputs and
// outputs use the BytesBits layout. Treat as read-only.
func CircuitAES128() *Circuit { return circuit.AES128() }

// CircuitSHA256 returns the embedded SHA-256 compression circuit
// (padded block, chaining value -> new chaining value). Treat as
// read-only.
func CircuitSHA256() *Circuit { return circuit.SHA256() }

// CircuitDivide64 returns the embedded 64-bit unsigned divider
// (dividend, divisor -> quotient, remainder). Treat as read-only.
func CircuitDivide64() *Circuit { return circuit.Divide64() }

// BytesBits explodes a byte string into the LSB-first-per-byte bit
// layout the embedded byte-oriented circuits use; BitsBytes inverts.
func BytesBits(p []byte) []bool { return circuit.BytesBits(p) }

// BitsBytes recomposes BytesBits output into a byte string.
func BitsBytes(bits []bool) []byte { return circuit.BitsBytes(bits) }

// Arithmetic engine re-exports: additive secret sharing over Z_2^64
// with COT-backed Beaver triples and A2B/B2A bridges into the GMW
// engine (internal/arith; see the arith section of DESIGN.md). An
// ArithParty consumes the same two-directional pools as a GMWParty —
// in fact it embeds one (the Bool field) on the same conn, so one
// session mixes linear algebra and Boolean nonlinearities.
type (
	// ArithParty is one side of an arithmetic evaluation.
	ArithParty = arith.Party
	// ArithShare is an additively-shared vector over Z_2^64.
	ArithShare = arith.Share
	// ArithTriples is a batch of Beaver triples consumed by MulVec.
	ArithTriples = arith.Triples
	// ArithMatTriple is a Beaver matrix triple consumed by MatMul.
	ArithMatTriple = arith.MatTriple
	// FixedPoint is the two's-complement fixed-point encoding used by
	// the arithmetic layer's ML-shaped workloads.
	FixedPoint = arith.Fixed
)

// NewArithParty assembles an arithmetic party from one pool per OT
// direction and runs the role handshake over conn (the peer must call
// it concurrently with the opposite first flag). Draw the pools with
// Sender.GMWPool / Receiver.GMWPool — arithmetic word OTs and GMW bit
// OTs share the same correlations.
func NewArithParty(conn Conn, out *GMWSenderPool, in *GMWReceiverPool, first bool) (*ArithParty, error) {
	return arith.NewParty(conn, out, in, first)
}

// VerifyCOTs checks z = y ⊕ x·Δ for a batch (test/diagnostic helper —
// in a deployment the receiver never sees Δ).
func VerifyCOTs(delta Block, z []Block, bits []bool, y []Block) error {
	if len(z) != len(bits) || len(z) != len(y) {
		return fmt.Errorf("ironman: length mismatch")
	}
	return ferret.Check(delta, z, &ferret.ReceiverOutput{Bits: bits, Blocks: y})
}
