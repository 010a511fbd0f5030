// Package ironman is the public API of this repository: a Go
// implementation of PCG-style correlated-OT extension (Ferret) with the
// Ironman paper's hardware-aware m-ary GGM optimization, plus the
// simulation stack that reproduces the paper's evaluation (MICRO'25:
// "Ironman: Accelerating Oblivious Transfer Extension for
// Privacy-Preserving AI with Near-Memory Processing").
//
// The root package is the COT endpoint and nothing else. The two-party
// protocol runs over any transport.Conn; this package re-exports
// in-process pipes and TCP framing, wraps the extension endpoints with
// buffering so callers can draw any number of correlations, runs
// chosen-message OTs, and hands drawn correlations to the engines
// (internal/gmw, internal/arith, internal/circuit) as pools through
// GMWPool.
//
// Security model: semi-honest adversaries, 128-bit computational
// security. See DESIGN.md for scope notes.
package ironman

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/pool"
	"ironman/internal/transport"
)

// Block is the 128-bit unit of all OT payloads.
type Block = block.Block

// Conn is the two-party message channel.
type Conn = transport.Conn

// Pipe returns two connected in-process endpoints.
func Pipe() (Conn, Conn) { return transport.Pipe() }

// NewTCPConn frames an established network connection.
func NewTCPConn(nc net.Conn) Conn { return transport.NewTCP(nc) }

// Params is a Table 4 parameter set name: "2^20" .. "2^24".
type Params = ferret.Params

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
	// use — the rank-parallel LPN encode and concurrent GGM tree
	// expansion. 0 — the default — selects runtime.GOMAXPROCS; 1 is the
	// strictly sequential path. The wire transcript is byte-identical
	// for every value, so the two peers may use different worker counts.
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
	// Seed, when non-zero, keys every endpoint-local random draw — the
	// dealt or IKNP-chosen first reserve, GGM roots, noise positions,
	// choice vectors — from one stream per endpoint role
	// (aesprg.NewLocal(Seed, role)) instead of a fresh crypto/rand key.
	// NOT secure; the backend-parity and determinism tests and the
	// benchmark harness use it to make a dealt run a pure function of
	// (delta, params, options). The base OTs of a network pair stay
	// fresh.
	Seed Block
}

func (o Options) extOpts() extension.Options {
	return extension.Options{Workers: o.Workers, Seed: o.Seed, BinaryAES: !o.FourAryChaCha}
}

// backend resolves Options.Backend against the registry.
func (o Options) backend() (extension.Backend, error) {
	return extension.ByName(o.Backend)
}

func (o Options) poolCfg() pool.Config {
	return pool.Config{Depth: o.Prefetch}
}

// DefaultOptions is the Ironman design point.
func DefaultOptions() Options { return Options{FourAryChaCha: true} }

// PoolStats is one endpoint's correlation-buffer counters: how many
// correlations the protocol generated and dispensed, how many Extend
// refills ran, and how long draws spent blocked on generation.
type PoolStats = pool.Stats

// Sender produces correlations r0/r1 = r0 ⊕ Δ. Its buffer is a
// standalone prefetching pool for network endpoints, or the sender half
// of a shared lockstep pool.Dealt for dealt pairs.
type Sender struct {
	ext extension.Sender
	p   *pool.Sender
	h   *aesprg.Hash
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
}

// Receiver holds choice bits and r_b blocks.
type Receiver struct {
	p        *pool.Receiver
	h        *aesprg.Hash
	conn     Conn
	peerConn Conn
	busy     *atomic.Bool
}

// newSender wraps an extension endpoint and the pool view it draws
// from; busy is shared by the two endpoints of a prefetching dealt pair.
func newSender(ext extension.Sender, p *pool.Sender, conn Conn, busy *atomic.Bool) *Sender {
	return &Sender{ext: ext, p: p, h: aesprg.NewHash(), conn: conn, busy: busy}
}

func newReceiver(p *pool.Receiver, conn Conn, busy *atomic.Bool) *Receiver {
	return &Receiver{p: p, h: aesprg.NewHash(), conn: conn, busy: busy}
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
	return newSender(ext, pool.NewSender(ext.Extend, opts.poolCfg()), conn, opts.busyFlag()), nil
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
	return newReceiver(pool.NewReceiver(ext.Extend, opts.poolCfg()), conn, opts.busyFlag()), nil
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
// one-sided draw is bounded by pool's default retention cap of
// Prefetch+8 batches (the undrawn half retains every generated batch;
// past the cap the draw fails instead of exhausting memory). Because
// the generator is shared, Close on either endpoint stops prefetching
// for both.
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
		s := newSender(es, d.SenderHalf(), connS, busy)
		r := newReceiver(d.ReceiverHalf(), connR, busy)
		s.peerConn, r.peerConn = connR, connS
		return s, r, nil
	}
	return newSender(es, pool.NewSender(es.Extend, opts.poolCfg()), connS, opts.busyFlag()),
		newReceiver(pool.NewReceiver(er.Extend, opts.poolCfg()), connR, opts.busyFlag()), nil
}

// RandomDelta samples a fresh global correlation from a fresh local
// stream (aesprg.NewLocal).
func RandomDelta() Block {
	return aesprg.NewLocal(Block{}, Block{}).Block()
}

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

// SendChosen runs chosen-message 1-of-2 OTs for the given pairs,
// consuming one fresh COT each (peer: ReceiveChosen). The COTs are
// drawn as one GMWPool and exchanged by cot.SendChosen, so hash tweaks
// restart with every call, as they do with every pool. While the
// endpoint prefetches (Options.Prefetch > 0) its protocol conn is
// rejected with ErrConnBusy — background iterations own that stream.
func (s *Sender) SendChosen(conn Conn, msgs [][2]Block) error {
	if s.busy.Load() && (sameConn(conn, s.conn) || sameConn(conn, s.peerConn)) {
		return ErrConnBusy
	}
	p, err := s.GMWPool(len(msgs))
	if err != nil {
		return err
	}
	return cot.SendChosen(conn, p, s.h, msgs)
}

// ReceiveChosen selects one message per pair. The same ErrConnBusy
// guard as SendChosen applies to prefetching endpoints.
func (r *Receiver) ReceiveChosen(conn Conn, choices []bool) ([]Block, error) {
	if r.busy.Load() && (sameConn(conn, r.conn) || sameConn(conn, r.peerConn)) {
		return nil, ErrConnBusy
	}
	p, err := r.GMWPool(len(choices))
	if err != nil {
		return nil, err
	}
	return cot.ReceiveChosen(conn, p, r.h, choices)
}

// GMWPool materializes n correlations from this endpoint into the pool
// the engines consume (this party as OT sender): hand it to
// gmw.NewParty or arith.NewParty, together with a receiver pool from an
// endpoint pair running in the opposite direction.
func (s *Sender) GMWPool(n int) (*cot.SenderPool, error) {
	r0, err := s.COTs(n)
	if err != nil {
		return nil, err
	}
	return cot.NewSenderPool(s.ext.Delta(), r0), nil
}

// GMWPool materializes n correlations from this endpoint into the pool
// the engines consume (this party as OT receiver).
func (r *Receiver) GMWPool(n int) (*cot.ReceiverPool, error) {
	bits, blocks, err := r.COTs(n)
	if err != nil {
		return nil, err
	}
	return cot.NewReceiverPool(bits, blocks)
}

// VerifyCOTs checks z = y ⊕ x·Δ for a batch (test/diagnostic helper —
// in a deployment the receiver never sees Δ).
func VerifyCOTs(delta Block, z []Block, bits []bool, y []Block) error {
	if len(z) != len(bits) || len(z) != len(y) {
		return fmt.Errorf("ironman: length mismatch")
	}
	return ferret.Check(delta, z, &ferret.ReceiverOutput{Bits: bits, Blocks: y})
}
