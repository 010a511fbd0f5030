// Package ferret implements the PCG-style OT extension protocol the
// paper profiles and accelerates (Ferret, Yang et al. CCS'20; §2.3).
//
// One protocol instance works in iterations. Initialization runs 128
// public-key base OTs and one IKNP extension to obtain the first
// Reserve() = k + t·log2(ℓ) COT correlations. Every Extend() then:
//
//  1. runs the interactive MPCOT step — t GGM trees of ℓ leaves,
//     punctured through (m-1)-out-of-m OTs (§4) — producing the sparse
//     correlation (w; u, v) of length n;
//  2. consumes k carried-over COTs (r; e, s) as the LPN input;
//  3. locally encodes z = r·A ⊕ w (sender) and x = e·A ⊕ u,
//     y = s·A ⊕ v (receiver), yielding n fresh COTs z = y ⊕ x·Δ;
//  4. reserves the last Reserve() outputs to feed the next iteration
//     and hands the caller the remaining Usable() correlations.
//
// Security model: semi-honest, 128-bit computational security; the
// malicious-consistency check of the original paper is out of scope
// (DESIGN.md).
package ferret

import (
	"fmt"
	"sync"
	"weak"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/iknp"
	"ironman/internal/lpn"
	"ironman/internal/mpcot"
	"ironman/internal/obs"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// Trace thread-id layout: each endpoint owns a lane for its sequential
// phases and a contiguous block of worker lanes directly after it.
// Keeping the two endpoints 100 apart leaves room for any realistic
// worker count while staying deterministic across runs.
const (
	// SenderTID is the trace lane of the sender's sequential phases;
	// its phase workers occupy SenderTID+1+shard.
	SenderTID = 1
	// ReceiverTID is the trace lane of the receiver's sequential
	// phases; its workers occupy ReceiverTID+1+shard.
	ReceiverTID = 101
)

// Domain-separation constants for the Options.Seed streams
// (aesprg.NewLocal): each endpoint role derives its private randomness
// from an independent stream so the two halves never consume the same
// bytes.
var (
	seedDomainSender   = block.New(0x73656e646572, 1)
	seedDomainReceiver = block.New(0x7265636569766572, 2)
	seedDomainDealer   = block.New(0x6465616c6572, 3)
)

// DefaultCodeSeed is the public seed both parties use to derive the
// fixed LPN matrix A. Fixing it in the package mirrors the fixed public
// code of real deployments.
var DefaultCodeSeed = block.New(0x69726f6e6d616e21, 0x6c706e2d636f6465)

// codeKey names one LPN code shape; the seed is always DefaultCodeSeed.
type codeKey struct{ n, k, d int }

// codes memoises the public LPN code per shape so every endpoint in
// the process (both halves of a dealt pair, every dispenser session on
// every shard) shares one read-only derivation. Entries are weak: the
// memo never keeps a code alive, so once no endpoint holds it the GC
// frees it (the 2^24 index matrix alone is ~690 MB) and the next
// caller derives it again. A dead entry is one pointer per shape ever
// used, so it is left in place.
var codes = struct {
	sync.Mutex
	live     map[codeKey]weak.Pointer[lpn.Code]
	inflight map[codeKey]*codeCall
}{
	live:     map[codeKey]weak.Pointer[lpn.Code]{},
	inflight: map[codeKey]*codeCall{},
}

// codeCall is one derivation in flight; code is set before done closes.
type codeCall struct {
	done chan struct{}
	code *lpn.Code
}

// sharedCode returns the live code for params' shape, deriving it when
// none is held. The lock is not held while lpn.New runs: callers for
// the same shape wait on the one derivation in flight, callers for
// another shape are not blocked. params must have passed Validate.
func sharedCode(params Params) *lpn.Code {
	key := codeKey{params.N, params.K, params.D}
	codes.Lock()
	if code := codes.live[key].Value(); code != nil {
		codes.Unlock()
		return code
	}
	if call, ok := codes.inflight[key]; ok {
		codes.Unlock()
		<-call.done
		return call.code
	}
	call := &codeCall{done: make(chan struct{})}
	codes.inflight[key] = call
	codes.Unlock()

	call.code = lpn.New(DefaultCodeSeed, key.n, key.k, key.d)

	codes.Lock()
	codes.live[key] = weak.Make(call.code)
	delete(codes.inflight, key)
	codes.Unlock()
	close(call.done)
	return call.code
}

// Options configures a protocol instance. The LPN code is not an
// option: it is public and fixed per parameter shape, so every
// endpoint resolves it through the process-wide sharedCode memo.
type Options struct {
	// PRG is the GGM expansion PRG; the zero value selects the Ironman
	// design point, the 4-ary ChaCha8 construction.
	PRG prg.PRG
	// Workers caps the goroutines Extend's local phases use (the
	// rank-parallel LPN encode, the concurrent GGM tree
	// expansion/reconstruction). 0 — the default — selects
	// runtime.GOMAXPROCS; 1 is the strictly sequential seed path. The
	// wire transcript is byte-identical for every value: only local
	// compute is sharded.
	Workers int
	// Seed, when non-zero, keys every endpoint-local random draw — the
	// first reserve (dealt by DealPools, or the receiver's IKNP choice
	// bits in NewReceiver), per-iteration GGM tree seeds, and the
	// receiver's noise positions — from one AES-CTR stream per role
	// (aesprg.NewLocal) instead of a crypto/rand key, making a dealt
	// run a pure function of (delta, params, options). NOT secure; the
	// parallel-vs-sequential determinism cross-checks and the
	// benchmark harness use it.
	Seed block.Block
	// Trace, when non-nil, records one span per Extend phase into the
	// Chrome trace-event timeline: "extend" wrapping the iteration,
	// "spcot.expand"/"spcot.flights"/"spcot.reconstruct" and
	// "lpn.encode"/"lpn.noise" inside it, plus per-worker lanes for
	// the sharded phases. Tracing observes local compute only; the
	// wire transcript is byte-identical with and without it (the
	// determinism tests pin this).
	Trace *obs.Tracer
}

func (o *Options) fill() {
	if o.PRG == (prg.PRG{}) {
		o.PRG = prg.New(prg.ChaCha8, 4)
	}
}

// trace labels this endpoint's sequential lane in the trace viewer and
// returns the (possibly nil) tracer for the endpoint struct.
func (o *Options) traceFor(tid int, name string) *obs.Tracer {
	if o.Trace != nil {
		o.Trace.NameThread(tid, name)
	}
	return o.Trace
}

// Sender is the OTE sender (holder of the global Δ).
type Sender struct {
	conn    transport.Conn
	params  Params
	prg     prg.PRG
	hash    *aesprg.Hash
	code    *lpn.Code
	pool    *cot.SenderPool
	workers int
	rng     *aesprg.Stream // GGM tree seeds
	trace   *obs.Tracer
	Delta   block.Block
	// Iterations counts completed Extend calls.
	Iterations int
}

// Receiver is the OTE receiver.
type Receiver struct {
	conn       transport.Conn
	params     Params
	prg        prg.PRG
	hash       *aesprg.Hash
	code       *lpn.Code
	pool       *cot.ReceiverPool
	workers    int
	rng        *aesprg.Stream // first-reserve choices, then noise positions
	trace      *obs.Tracer
	Iterations int
}

// NewSender initializes the sender: base OTs + one IKNP extension for
// the first reserve of correlations.
func NewSender(conn transport.Conn, delta block.Block, params Params, opts Options) (*Sender, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	code := sharedCode(params)
	ik, err := iknp.NewSender(conn, delta)
	if err != nil {
		return nil, fmt.Errorf("ferret init: %w", err)
	}
	r0, err := ik.Extend(params.Reserve())
	if err != nil {
		return nil, fmt.Errorf("ferret init extend: %w", err)
	}
	return &Sender{
		conn:    conn,
		params:  params,
		prg:     opts.PRG,
		hash:    aesprg.NewHash(),
		code:    code,
		pool:    cot.NewSenderPool(delta, r0),
		workers: opts.Workers,
		rng:     aesprg.NewLocal(opts.Seed, seedDomainSender),
		trace:   opts.traceFor(SenderTID, "ferret.sender"),
		Delta:   delta,
	}, nil
}

// NewReceiver initializes the receiver half.
func NewReceiver(conn transport.Conn, params Params, opts Options) (*Receiver, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	code := sharedCode(params)
	ik, err := iknp.NewReceiver(conn)
	if err != nil {
		return nil, fmt.Errorf("ferret init: %w", err)
	}
	rng := aesprg.NewLocal(opts.Seed, seedDomainReceiver)
	choices := make([]bool, params.Reserve())
	rng.Bits(choices)
	rb, err := ik.Extend(choices)
	if err != nil {
		return nil, fmt.Errorf("ferret init extend: %w", err)
	}
	pool, err := cot.NewReceiverPool(choices, rb)
	if err != nil {
		return nil, err
	}
	return &Receiver{
		conn:    conn,
		params:  params,
		prg:     opts.PRG,
		hash:    aesprg.NewHash(),
		code:    code,
		pool:    pool,
		workers: opts.Workers,
		rng:     rng,
		trace:   opts.traceFor(ReceiverTID, "ferret.receiver"),
	}, nil
}

func (s *Sender) mpcotConfig() mpcot.Config {
	return mpcot.Config{N: s.params.N, Leaves: s.params.L, T: s.params.T,
		Trace: s.trace, TID: SenderTID}
}

func (r *Receiver) mpcotConfig() mpcot.Config {
	return mpcot.Config{N: r.params.N, Leaves: r.params.L, T: r.params.T,
		Trace: r.trace, TID: ReceiverTID}
}

// Extend runs one protocol iteration and returns Usable() fresh r0
// blocks (r1 = r0 ⊕ Δ implied). Local phases (GGM expansion, the LPN
// encode) shard across Options.Workers goroutines; the wire transcript
// does not depend on the worker count.
func (s *Sender) Extend() ([]block.Block, error) {
	ext := s.trace.Span("extend", "ferret", SenderTID)
	cfg := s.mpcotConfig()
	// Step 1: interactive SPCOT phase — parallel tree expansion, then
	// sequential puncturing flights.
	seeds := make([]block.Block, cfg.T)
	s.rng.Blocks(seeds)
	w, err := mpcot.SendSeeded(s.conn, s.pool, s.hash, s.prg, cfg, seeds, s.workers)
	if err != nil {
		return nil, fmt.Errorf("ferret extend (spcot): %w", err)
	}
	// Step 2: LPN input from the carried-over reserve.
	r, err := s.pool.TakeBlocks(s.params.K)
	if err != nil {
		return nil, fmt.Errorf("ferret extend (lpn input): %w", err)
	}
	// Step 3: local LPN encoding, z = r·A ⊕ w (rank-parallel).
	enc := s.trace.Span("lpn.encode", "extend", SenderTID)
	z := make([]block.Block, s.params.N)
	s.code.EncodeBlocksSpans(z, r, w, s.workers, s.trace, SenderTID)
	if enc.Live() {
		enc.EndArgs(map[string]any{"rows": s.params.N, "k": s.params.K})
	}
	// Step 4: bootstrap the next iteration from the tail.
	usable := s.params.Usable()
	s.pool = cot.NewSenderPool(s.Delta, z[usable:])
	s.Iterations++
	if ext.Live() {
		ext.EndArgs(map[string]any{"iteration": s.Iterations, "n": s.params.N})
	}
	return z[:usable], nil
}

// ReceiverOutput is one iteration's receiver-side yield: choice bits
// and the matching r_b blocks.
type ReceiverOutput struct {
	Bits   []bool
	Blocks []block.Block
}

// Extend runs one protocol iteration on the receiver side. As on the
// sender, local phases shard across Options.Workers goroutines without
// touching the wire transcript.
func (r *Receiver) Extend() (*ReceiverOutput, error) {
	ext := r.trace.Span("extend", "ferret", ReceiverTID)
	cfg := r.mpcotConfig()
	alphas := cfg.AlphasFrom(r.rng)
	v, err := mpcot.ReceiveWorkers(r.conn, r.pool, r.hash, r.prg, cfg, alphas, r.workers)
	if err != nil {
		return nil, fmt.Errorf("ferret extend (spcot): %w", err)
	}
	e, sBlocks, err := r.pool.Take(r.params.K)
	if err != nil {
		return nil, fmt.Errorf("ferret extend (lpn input): %w", err)
	}
	enc := r.trace.Span("lpn.encode", "extend", ReceiverTID)
	y := make([]block.Block, r.params.N)
	r.code.EncodeBlocksSpans(y, sBlocks, v, r.workers, r.trace, ReceiverTID)
	if enc.Live() {
		enc.EndArgs(map[string]any{"rows": r.params.N, "k": r.params.K})
	}
	// Noise positions in [N, t·ℓ) sit in the truncated tail of the
	// output range: their tree output was discarded by MPCOT, so they
	// carry no noise and are dropped here ON PURPOSE — EncodeBitsSpans
	// itself rejects out-of-range points as caller bugs.
	points := make([]int, 0, len(alphas))
	for _, a := range alphas {
		if a < r.params.N {
			points = append(points, a)
		}
	}
	noise := r.trace.Span("lpn.noise", "extend", ReceiverTID)
	x := make([]bool, r.params.N)
	if err := r.code.EncodeBitsSpans(x, e, points, r.workers, r.trace, ReceiverTID); err != nil {
		return nil, fmt.Errorf("ferret extend (lpn noise): %w", err)
	}
	if noise.Live() {
		noise.EndArgs(map[string]any{"rows": r.params.N, "points": len(points)})
	}

	usable := r.params.Usable()
	pool, err := cot.NewReceiverPool(x[usable:], y[usable:])
	if err != nil {
		return nil, err
	}
	r.pool = pool
	r.Iterations++
	if ext.Live() {
		ext.EndArgs(map[string]any{"iteration": r.Iterations, "n": r.params.N})
	}
	return &ReceiverOutput{Bits: x[:usable], Blocks: y[:usable]}, nil
}

// DealPools is the trusted-dealer shortcut: it returns an initialized
// Sender/Receiver pair over conn whose first reserve comes from a
// dealer stream (aesprg.NewLocal) instead of base OT + IKNP. Tests and
// benchmarks that study post-init behaviour (which is what the paper
// accelerates) use this to skip the one-time init cost.
func DealPools(connS, connR transport.Conn, delta block.Block, params Params, opts Options) (*Sender, *Receiver, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	opts.fill()
	sp, rp, err := cot.PoolsFromStream(aesprg.NewLocal(opts.Seed, seedDomainDealer), delta, params.Reserve())
	if err != nil {
		return nil, nil, err
	}
	code := sharedCode(params)
	s := &Sender{
		conn: connS, params: params, prg: opts.PRG, hash: aesprg.NewHash(),
		code: code, pool: sp, Delta: delta,
		workers: opts.Workers, rng: aesprg.NewLocal(opts.Seed, seedDomainSender),
		trace: opts.traceFor(SenderTID, "ferret.sender"),
	}
	r := &Receiver{
		conn: connR, params: params, prg: opts.PRG, hash: aesprg.NewHash(),
		code: code, pool: rp,
		workers: opts.Workers, rng: aesprg.NewLocal(opts.Seed, seedDomainReceiver),
		trace: opts.traceFor(ReceiverTID, "ferret.receiver"),
	}
	return s, r, nil
}

// Check verifies a batch of correlations against Δ: z[i] must equal
// y[i] ⊕ x[i]·Δ. Only tests and the examples use it (a real receiver
// never sees Δ).
func Check(delta block.Block, z []block.Block, out *ReceiverOutput) error {
	if len(z) != len(out.Bits) || len(z) != len(out.Blocks) {
		return fmt.Errorf("ferret: length mismatch %d/%d/%d", len(z), len(out.Bits), len(out.Blocks))
	}
	for i := range z {
		want := out.Blocks[i]
		if out.Bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			return fmt.Errorf("ferret: correlation broken at %d", i)
		}
	}
	return nil
}
