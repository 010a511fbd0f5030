// Package softspoken implements SoftSpokenOT (Roy, CRYPTO'22; eprint
// 2022/192) as a second correlated-OT extension backend next to
// internal/ferret: a small-field subfield-VOLE construction that
// chunks the 128-bit global correlation Δ into 128/k field elements of
// k bits each and derives the VOLE columns from punctured GGM PRGs.
//
// Construction (one instance, parameters n and k with k | 128):
//
//   - Setup. Split Δ into nc = 128/k chunks Δ_j of k bits. The
//     extension RECEIVER expands nc binary GGM trees of 2^k leaves and
//     plays base-OT sender for nc·k = 128 random-pair base OTs; the
//     extension SENDER plays base-OT receiver with choice digits
//     derived from Δ_j, unmasks one level sum per tree level, and
//     reconstructs every leaf seed except the one at index Δ_j. Each
//     surviving leaf seeds a persistent AES-CTR stream, so all later
//     Extends are non-interactive PRG evaluation plus one message.
//
//   - Extend. Both sides stretch every leaf stream by m = n+128 bits.
//     Per chunk the receiver folds the 2^k leaf rows r_a into
//     u_j = ⊕_a r_a and k columns v^(b) = ⊕_{bit_b(a)=1} r_a, and
//     sends the correction c_j = u_j ⊕ x against its (random) packed
//     choice vector x. The sender folds its punctured leaves into
//     w^(b) = ⊕_{a≠Δ_j, bit_b(a⊕Δ_j)=1} r_a and adds c_j into every
//     column with bit_b(Δ_j) = 1, which yields w'^(b) = v^(b) ⊕
//     bit_b(Δ_j)·x (the a = Δ_j term vanishes since bit_b(0) = 0).
//     Bit-transposing the 128 columns gives z_t = y_t ⊕ x_t·Δ — the
//     same Δ-correlated COTs ferret produces. The last 128 rows are
//     sacrificed for a lockstep check: the receiver appends x and y
//     for those rows and the sender verifies the correlation on them,
//     so desynchronized endpoints — drifted stream offsets, mismatched
//     iteration counts, truncated or reordered frames — fail loudly
//     with ErrConsistency instead of yielding garbage correlations.
//     This is a sanity check against protocol-state divergence, not a
//     MAC: the semi-honest model assumes a reliable transport, and the
//     malicious-security consistency check of the paper is out of
//     scope, as for ferret (see DESIGN.md).
//
// Wire profile: one receiver→sender message of (128/k)·(n+128)/8 +
// 16 + 2048 bytes per Extend — k-fold fewer column bytes than
// IKNP-style full-width transfer — against ferret's many small
// puncturing flights. WireBytes is that count exactly; the extension
// bench asserts the measured transcript against it byte-for-byte.
package softspoken

import (
	"crypto/rand"
	"crypto/subtle"
	"fmt"

	"ironman/internal/aesprg"
	"ironman/internal/baseot"
	"ironman/internal/block"
	"ironman/internal/ggm"
	"ironman/internal/obs"
	"ironman/internal/parallel"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// Trace thread-id layout, mirroring ferret: each endpoint owns a lane
// for its sequential phases and worker lanes directly after it.
const (
	// SenderTID is the trace lane of the sender's sequential phases.
	SenderTID = 1
	// ReceiverTID is the trace lane of the receiver's phases.
	ReceiverTID = 101
)

// kappa is the computational security parameter: the width of Δ, the
// base-OT count, and the number of sacrificed check rows per Extend.
const kappa = 128

// DefaultFieldBits is the default subfield size k: 4-bit chunks, the
// wire/compute balance point (2^4 leaf streams per chunk for a 4-fold
// column reduction over IKNP).
const DefaultFieldBits = 4

// Domain-separation constants for the deterministic Options.Seed
// streams (same idiom as ferret: each role derives private randomness
// from an independent stream).
var (
	seedDomainReceiver = block.New(0x736f6674727376, 2) // "softrsv"
	seedDomainDealer   = block.New(0x736f667464656c, 3) // "softdel"
)

// ErrConsistency is returned by Sender.Extend when the sacrificed
// check rows fail to verify: the two endpoints' streams have diverged
// (corrupted transcript, mismatched iteration counts, or a buggy
// transport), and none of the batch's correlations are trustworthy.
var ErrConsistency = fmt.Errorf("softspoken: check rows broke the correlation (transcript corrupted or endpoints desynchronized)")

// Options configures a protocol instance.
type Options struct {
	// FieldBits is the subfield size k: Δ is processed in 128/k chunks
	// of k bits, each backed by a GGM tree of 2^k leaf streams. Larger
	// k trades PRG compute (2^k/k times the stream bytes) for a k-fold
	// column-transfer reduction. Must divide 128 and keep the trees
	// sane: 1, 2, 4 or 8. 0 selects DefaultFieldBits.
	FieldBits int
	// Workers caps the goroutines Extend's local phases use (leaf
	// stream expansion, the bit transpose). 0 selects
	// runtime.GOMAXPROCS; 1 is strictly sequential. The wire
	// transcript is byte-identical for every value.
	Workers int
	// Seed, when non-zero, derives every endpoint-local random draw —
	// the receiver's GGM roots and per-Extend choice vectors, and the
	// dealt setup of DealPair — from deterministic AES-CTR streams
	// instead of crypto/rand. NOT secure; determinism cross-checks and
	// the benchmark harness use it.
	Seed block.Block
	// Trace, when non-nil, records one span per Extend phase
	// ("extend" wrapping the iteration, "softspoken.expand" and
	// "softspoken.transpose" inside it, plus per-worker lanes).
	Trace *obs.Tracer
}

func (o *Options) fill() {
	if o.FieldBits == 0 {
		o.FieldBits = DefaultFieldBits
	}
}

func (o *Options) validate(n int) error {
	switch o.FieldBits {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("softspoken: FieldBits must be 1, 2, 4 or 8, got %d", o.FieldBits)
	}
	if n <= 0 || n%8 != 0 {
		return fmt.Errorf("softspoken: batch size must be a positive multiple of 8, got %d", n)
	}
	return nil
}

func (o *Options) traceFor(tid int, name string) *obs.Tracer {
	if o.Trace != nil {
		o.Trace.NameThread(tid, name)
	}
	return o.Trace
}

// treePRG is the GGM expansion PRG: binary AES, matching the
// fixed-key leaf derivation the leaf streams (AES-CTR) assume.
func treePRG() prg.PRG { return prg.New(prg.AES, 2) }

// WireBytes is the exact per-Extend transcript size for batch n and
// subfield k: 128/k correction columns of (n+128)/8 bytes plus the
// 16-byte x and 2048-byte y check-row sections, in one message.
func WireBytes(n, k int) int64 {
	mb := int64(n+kappa) / 8
	return int64(kappa/k)*mb + block.Size + kappa*block.Size
}

// Sender is the extension sender: holder of the global Δ, consumer of
// the punctured leaf streams.
type Sender struct {
	conn    transport.Conn
	n       int
	k       int
	nc      int
	holes   []int            // Δ_j per chunk: the leaf index it cannot expand
	streams []*aesprg.Stream // nc·2^k leaf streams, nil at each chunk's hole
	delta   block.Block
	workers int
	trace   *obs.Tracer
	// Iterations counts completed Extend calls.
	Iterations int
}

// Receiver is the extension receiver: owner of all leaf streams and of
// the per-Extend random choice vectors.
type Receiver struct {
	conn    transport.Conn
	n       int
	k       int
	nc      int
	streams []*aesprg.Stream // nc·2^k leaf streams, all present
	rng     *aesprg.Stream   // GGM roots at setup, then per-Extend x draws
	workers int
	trace   *obs.Tracer
	// Iterations counts completed Extend calls.
	Iterations int
}

// chunkHoles splits delta into 128/k k-bit chunk values, LSB-first
// within each chunk: Δ_j = Σ_b bit(j·k+b) · 2^b.
func chunkHoles(delta block.Block, k int) []int {
	holes := make([]int, kappa/k)
	for j := range holes {
		v := 0
		for b := 0; b < k; b++ {
			v |= delta.Bit(j*k+b) << uint(b)
		}
		holes[j] = v
	}
	return holes
}

// newReceiverCore draws the GGM roots, expands the chunk trees and
// seeds the leaf streams; the caller wires up the setup protocol (or,
// for DealPair, hands the leaves to the dealt sender directly).
func newReceiverCore(n int, opts Options) (*Receiver, []*ggm.Tree, error) {
	opts.fill()
	if err := opts.validate(n); err != nil {
		return nil, nil, err
	}
	var rng *aesprg.Stream
	if opts.Seed != (block.Block{}) {
		rng = aesprg.NewStream(opts.Seed.Xor(seedDomainReceiver))
	} else {
		var seed [block.Size]byte
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, nil, err
		}
		rng = aesprg.NewStream(block.FromBytes(seed[:]))
	}
	k := opts.FieldBits
	nc := kappa / k
	leaves := 1 << uint(k)
	roots := make([]block.Block, nc)
	rng.Blocks(roots)
	p := treePRG()
	arities := ggm.LevelArities(leaves, 2)
	trees := make([]*ggm.Tree, nc)
	streams := make([]*aesprg.Stream, nc*leaves)
	for j, root := range roots {
		trees[j] = ggm.Expand(p, root, arities)
		for a, leaf := range trees[j].Leaves() {
			streams[j*leaves+a] = aesprg.NewStream(leaf)
		}
	}
	r := &Receiver{
		n: n, k: k, nc: nc, streams: streams, rng: rng,
		workers: opts.Workers,
		trace:   opts.traceFor(ReceiverTID, "softspoken.receiver"),
	}
	return r, trees, nil
}

// NewReceiver initializes the receiving endpoint over conn (the peer
// must run NewSender concurrently): it serves the 128 base OTs and
// sends one message of masked GGM level sums.
func NewReceiver(conn transport.Conn, n int, opts Options) (*Receiver, error) {
	r, trees, err := newReceiverCore(n, opts)
	if err != nil {
		return nil, err
	}
	r.conn = conn
	pairs, err := baseot.Send(conn, kappa)
	if err != nil {
		return nil, fmt.Errorf("softspoken init: %w", err)
	}
	// One masked pair of level sums per (chunk, level): the sender
	// unmasks exactly the sum its base-OT choice paid for.
	msg := make([]byte, kappa*2*block.Size)
	for j, tree := range trees {
		for l := 1; l <= r.k; l++ {
			sums := tree.LevelSums(l)
			i := j*r.k + l - 1
			sums[0].Xor(pairs[i][0]).Put(msg[i*2*block.Size:])
			sums[1].Xor(pairs[i][1]).Put(msg[(i*2+1)*block.Size:])
		}
	}
	if err := conn.Send(msg); err != nil {
		return nil, fmt.Errorf("softspoken init: %w", err)
	}
	return r, nil
}

// NewSender initializes the sending endpoint over conn: it runs the
// base OTs with choice digits derived from delta, unmasks one level
// sum per tree level, and reconstructs the punctured leaf streams.
func NewSender(conn transport.Conn, delta block.Block, n int, opts Options) (*Sender, error) {
	opts.fill()
	if err := opts.validate(n); err != nil {
		return nil, err
	}
	k := opts.FieldBits
	nc := kappa / k
	leaves := 1 << uint(k)
	holes := chunkHoles(delta, k)
	arities := ggm.LevelArities(leaves, 2)
	digits := make([][]int, nc)
	choices := make([]bool, kappa)
	for j, hole := range holes {
		digits[j] = ggm.Digits(hole, arities)
		for l, d := range digits[j] {
			// We must learn the level sum OPPOSITE the hole's path
			// digit — the one entry ggm.Reconstruct reads per level.
			choices[j*k+l] = d == 0
		}
	}
	keys, err := baseot.Receive(conn, choices)
	if err != nil {
		return nil, fmt.Errorf("softspoken init: %w", err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("softspoken init: %w", err)
	}
	if len(msg) != kappa*2*block.Size {
		return nil, fmt.Errorf("softspoken init: masked-sum message is %d bytes, want %d", len(msg), kappa*2*block.Size)
	}
	p := treePRG()
	streams := make([]*aesprg.Stream, nc*leaves)
	for j, hole := range holes {
		sums := make([][]block.Block, k)
		for l := 0; l < k; l++ {
			i := j*k + l
			idx := 1 - digits[j][l]
			sums[l] = make([]block.Block, 2)
			sums[l][idx] = block.FromBytes(msg[(i*2+idx)*block.Size:]).Xor(keys[i])
		}
		rec := ggm.Reconstruct(p, arities, hole, sums)
		for a, leaf := range rec.Leaves {
			if a == hole {
				continue
			}
			streams[j*leaves+a] = aesprg.NewStream(leaf)
		}
	}
	return &Sender{
		conn: conn, n: n, k: k, nc: nc, holes: holes, streams: streams,
		delta: delta, workers: opts.Workers,
		trace: opts.traceFor(SenderTID, "softspoken.sender"),
	}, nil
}

// DealPair is the trusted-dealer shortcut: both endpoints of one
// instance in-process, with the sender's punctured streams dealt from
// the receiver's trees instead of run through base OTs. NOT secure
// (the dealer sees everything); tests and benchmarks of post-setup
// behaviour use it, exactly like ferret.DealPools.
func DealPair(connS, connR transport.Conn, delta block.Block, n int, opts Options) (*Sender, *Receiver, error) {
	if opts.Seed != (block.Block{}) {
		// Domain-shift so a DealPair and a network pair from the same
		// caller seed cannot alias each other's streams.
		opts.Seed = opts.Seed.Xor(seedDomainDealer)
	}
	r, trees, err := newReceiverCore(n, opts)
	if err != nil {
		return nil, nil, err
	}
	r.conn = connR
	opts.fill()
	k := opts.FieldBits
	leaves := 1 << uint(k)
	holes := chunkHoles(delta, k)
	streams := make([]*aesprg.Stream, len(r.streams))
	for j, tree := range trees {
		for a, leaf := range tree.Leaves() {
			if a == holes[j] {
				continue
			}
			// Fresh stream objects: the two endpoints advance their
			// copies independently.
			streams[j*leaves+a] = aesprg.NewStream(leaf)
		}
	}
	s := &Sender{
		conn: connS, n: n, k: k, nc: r.nc, holes: holes, streams: streams,
		delta: delta, workers: opts.Workers,
		trace: opts.traceFor(SenderTID, "softspoken.sender"),
	}
	return s, r, nil
}

// Delta returns the sender's global correlation.
func (s *Sender) Delta() block.Block { return s.delta }

// Batch returns the usable correlations per Extend.
func (s *Sender) Batch() int   { return s.n }
func (r *Receiver) Batch() int { return r.n }

// xorInto dst ^= src (equal lengths).
func xorInto(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// planes holds the 128 column bit-vectors of one Extend cut into row
// strips of stripBytes bytes per column (2^16 rows, 1 MB a strip):
// planes[s][c] is column c over the rows of strip s. A strip is one
// allocation, so transposeRows can release it once its rows exist;
// whole columns would stay live beside the rows for the length of the
// transpose, and the collector sizes the heap at twice what is live.
type planes [][][]byte

const stripBytes = 8 << 10

// xorCol XORs src into column c.
func (p planes) xorCol(c int, src []byte) {
	for s, strip := range p {
		xorInto(strip[c], src[s*stripBytes:][:len(strip[c])])
	}
}

// expandCols stretches every leaf stream by mb bytes and folds each
// chunk's leaves into its k column planes: leaf a is XORed into plane b
// for every set bit b of a⊕holes[j]. A nil stream (the sender's
// punctured leaf) is skipped. With sums non-nil, all leaves of chunk j
// are also XORed into sums[j·mb:(j+1)·mb]. Chunks shard across workers.
func expandCols(streams []*aesprg.Stream, holes []int, k, mb, workers int, sums []byte, tr *obs.Tracer, tid int) planes {
	exp := tr.Span("softspoken.expand", "extend", tid)
	cols := make(planes, (mb+stripBytes-1)/stripBytes)
	for s := range cols {
		sb := min(stripBytes, mb-s*stripBytes)
		strip := make([]byte, kappa*sb)
		cols[s] = make([][]byte, kappa)
		for c := range cols[s] {
			cols[s][c] = strip[c*sb : (c+1)*sb]
		}
	}
	leaves := 1 << uint(k)
	parallel.ShardIndexed(workers, len(holes), func(shard, lo, hi int) {
		sp := tr.Span("softspoken.expand", "extend.worker", tid+1+shard)
		buf := make([]byte, mb)
		for j := lo; j < hi; j++ {
			for a, st := range streams[j*leaves : (j+1)*leaves] {
				if st == nil {
					continue
				}
				st.Fill(buf)
				if sums != nil {
					xorInto(sums[j*mb:(j+1)*mb], buf)
				}
				for b := 0; b < k; b++ {
					if (a^holes[j])>>uint(b)&1 == 1 {
						cols.xorCol(j*k+b, buf)
					}
				}
			}
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"chunks": hi - lo})
		}
	})
	if exp.Live() {
		exp.EndArgs(map[string]any{"chunks": len(holes), "rows": 8 * mb})
	}
	return cols
}

// transposeRows bit-transposes the column planes into dst (row t bit c
// = bit t of column c) strip by strip, dropping each strip once its
// rows exist. A strip shards over block.TransposeBits' 64-row tiles,
// so the result is independent of the worker count.
func transposeRows(dst []block.Block, cols planes, workers int, tr *obs.Tracer, tid int) {
	sp := tr.Span("softspoken.transpose", "extend", tid)
	for s, strip := range cols {
		rows := dst[s*8*stripBytes : min((s+1)*8*stripBytes, len(dst))]
		parallel.ShardIndexed(workers, (len(rows)+63)/64, func(shard, tlo, thi int) {
			w := tr.Span("softspoken.transpose", "extend.worker", tid+1+shard)
			block.TransposeBits(rows, strip, tlo*64, min(thi*64, len(rows)))
			if w.Live() {
				w.EndArgs(map[string]any{"tiles": thi - tlo})
			}
		})
		cols[s] = nil
	}
	if sp.Live() {
		sp.EndArgs(map[string]any{"rows": len(dst)})
	}
}

// Extend runs one iteration on the receiver side and returns n choice
// bits x and blocks y with z = y ⊕ x·Δ held by the sender. Local
// phases shard across Options.Workers goroutines; the single outgoing
// message is byte-identical for every worker count.
func (r *Receiver) Extend() ([]bool, []block.Block, error) {
	ext := r.trace.Span("extend", "softspoken", ReceiverTID)
	m := r.n + kappa
	mb := m / 8
	xb := make([]byte, mb)
	r.rng.Fill(xb)
	// Correction columns c_j = (⊕_a r_a) ⊕ x, folded straight into
	// their slots of the single outgoing message.
	msg := make([]byte, r.nc*mb+block.Size+kappa*block.Size)
	cols := expandCols(r.streams, make([]int, r.nc), r.k, mb, r.workers, msg[:r.nc*mb], r.trace, ReceiverTID)
	for j := 0; j < r.nc; j++ {
		xorInto(msg[j*mb:(j+1)*mb], xb)
	}
	y := make([]block.Block, m)
	transposeRows(y, cols, r.workers, r.trace, ReceiverTID)
	// Check-row sections: the last 128 rows' x bits and y blocks let
	// the sender verify the correlation before trusting the batch.
	off := r.nc * mb
	copy(msg[off:], xb[r.n/8:])
	copy(msg[off+block.Size:], block.ToBytes(y[r.n:]))
	if err := r.conn.Send(msg); err != nil {
		return nil, nil, fmt.Errorf("softspoken extend: %w", err)
	}
	bits := make([]bool, r.n)
	for t := range bits {
		bits[t] = xb[t>>3]>>(uint(t)&7)&1 == 1
	}
	r.Iterations++
	if ext.Live() {
		ext.EndArgs(map[string]any{"iteration": r.Iterations, "n": r.n})
	}
	return bits, y[:r.n], nil
}

// Extend runs one iteration on the sender side and returns n blocks z
// with z = y ⊕ x·Δ. It consumes the peer's correction message and
// fails with ErrConsistency when the sacrificed check rows do not
// verify.
func (s *Sender) Extend() ([]block.Block, error) {
	ext := s.trace.Span("extend", "softspoken", SenderTID)
	m := s.n + kappa
	mb := m / 8
	// Folding by the offset a⊕Δ_j lines the columns up as v^(b) ⊕
	// bit_b(Δ_j)·x once the correction is added below (the hole term
	// has offset 0, no bits).
	cols := expandCols(s.streams, s.holes, s.k, mb, s.workers, nil, s.trace, SenderTID)
	msg, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("softspoken extend: %w", err)
	}
	want := s.nc*mb + block.Size + kappa*block.Size
	if len(msg) != want {
		return nil, fmt.Errorf("softspoken extend: correction message is %d bytes, want %d", len(msg), want)
	}
	for c := 0; c < kappa; c++ {
		if s.delta.Bit(c) == 1 {
			cols.xorCol(c, msg[c/s.k*mb:][:mb])
		}
	}
	z := make([]block.Block, m)
	transposeRows(z, cols, s.workers, s.trace, SenderTID)
	xchk := msg[s.nc*mb : s.nc*mb+block.Size]
	ychk := block.SliceFromBytes(msg[s.nc*mb+block.Size:])
	for t := 0; t < kappa; t++ {
		wantZ := ychk[t]
		if xchk[t>>3]>>(uint(t)&7)&1 == 1 {
			wantZ = wantZ.Xor(s.delta)
		}
		if z[s.n+t] != wantZ {
			return nil, fmt.Errorf("%w: check row %d", ErrConsistency, t)
		}
	}
	s.Iterations++
	if ext.Live() {
		ext.EndArgs(map[string]any{"iteration": s.Iterations, "n": s.n})
	}
	return z[:s.n], nil
}

// ExtendLockstep runs one iteration of both endpoints of an
// in-process pair concurrently and joins the results, mirroring
// ferret.ExtendLockstep.
func ExtendLockstep(s *Sender, r *Receiver) ([]block.Block, []bool, []block.Block, error) {
	var z []block.Block
	var serr error
	done := make(chan struct{})
	go func() {
		z, serr = s.Extend()
		close(done)
	}()
	bits, y, rerr := r.Extend()
	<-done
	if serr != nil {
		return nil, nil, nil, serr
	}
	if rerr != nil {
		return nil, nil, nil, rerr
	}
	return z, bits, y, nil
}
