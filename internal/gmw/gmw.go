// Package gmw is a bitsliced two-party GMW engine over XOR-shared bits,
// the protocol layer PPML frameworks build their nonlinear functions on
// (§2.2 of the Ironman paper): comparisons, multiplexers and the other
// Boolean building blocks of ReLU/GELU evaluation all reduce to XOR
// (free) and AND gates, where every AND consumes oblivious transfers.
//
// An AND gate on shares x = x_A ⊕ x_B, y = y_A ⊕ y_B needs the two
// cross terms x_A·y_B and x_B·y_A. Each cross term costs one 1-of-2
// correlated OT (the sender's output is a random bit s, the receiver's
// s ⊕ y·x) — and the two terms need OTs in *opposite directions*,
// which is exactly the role-switching requirement that motivates the
// paper's unified sender/receiver architecture (§5.2): each party runs
// one OT-extension instance as sender and one as receiver.
//
// # Round model and level batching
//
// The engine is round-batched: every independent AND gate of a circuit
// level should be evaluated in ONE two-flight OT exchange. Shares are
// word-packed PackedShare bit vectors, and AndPacked/AndPackedMany
// gates ride bit-packed correlated-OT frames (cot.SendCorrelatedBits,
// 2 bits of wire per OT). Multi-level circuits like GreaterThanVec are
// built as parallel-prefix networks so depth — and therefore network
// flights — is logarithmic in the operand width.
//
// Both parties must issue protocol calls (AndPacked, AndPackedMany,
// GreaterThanVec, MuxVec, ReLUVec, Reveal*) in matching order with
// matching shapes; Ordered serializes each exchange's two halves by
// the negotiated first flag so the message flights interleave
// deterministically (internal/arith orders its exchanges through the
// same helper).
package gmw

import (
	"errors"
	"fmt"
	"math/bits"

	"ironman/internal/aesprg"
	"ironman/internal/cot"
	"ironman/internal/obs"
	"ironman/internal/transport"
)

// ErrRoleConflict is returned by NewParty when the role handshake
// discovers both parties set (or both cleared) the first flag — a
// misconfiguration that would otherwise silently corrupt
// NotPacked/NewPublicPacked results or deadlock the AND-gate message
// interleaving.
var ErrRoleConflict = errors.New("gmw: role conflict")

// handshakeMagic tags the NewParty negotiation message.
const handshakeMagic = 'G'

// Party is one side of a GMW evaluation. Each party holds a COT pool
// for each direction: Out (this party is OT sender) and In (receiver).
type Party struct {
	conn transport.Conn
	hash *aesprg.Hash
	// Out: correlations where this party is the OT sender.
	Out *cot.SenderPool
	// In: correlations where this party is the OT receiver.
	In *cot.ReceiverPool
	// first breaks the symmetry of message ordering: exactly one party
	// has it set (verified by the NewParty handshake).
	first bool

	ANDGates  int // consumed AND gates (2 OTs each)
	Exchanges int // batched AND exchanges (one two-flight OT round each)

	// Observability hooks (Observe); all nil-safe and absent by default.
	trace      *obs.Tracer
	tid        int
	mANDs      *obs.Counter // ironman_gmw_and_gates_total
	mExchanges *obs.Counter // ironman_gmw_exchanges_total
	mWire      *obs.Counter // ironman_gmw_wire_bytes_total
}

// Observe attaches a metrics registry and/or phase tracer to the party.
// Every subsequent AND exchange increments
// ironman_gmw_{and_gates,exchanges,wire_bytes}_total{labels} and records
// one "gmw.exchange" span (thread id 1 for the first party, 2 for the
// peer — the two lanes of a two-party timeline). labels is an
// obs.Labels-formatted set merged into every series; either argument
// may be nil. Call before the first gate; the hooks are not
// synchronized with in-flight exchanges.
func (p *Party) Observe(reg *obs.Registry, tr *obs.Tracer, labels string) {
	p.trace = tr
	p.tid = 2
	if p.first {
		p.tid = 1
	}
	p.mANDs = reg.Counter(obs.Name("ironman_gmw_and_gates_total", labels))
	p.mExchanges = reg.Counter(obs.Name("ironman_gmw_exchanges_total", labels))
	p.mWire = reg.Counter(obs.Name("ironman_gmw_wire_bytes_total", labels))
}

// observing reports whether any per-exchange instrumentation is live
// (the one branch the un-observed hot path pays).
func (p *Party) observing() bool { return p.trace.Enabled() || p.mWire != nil }

// noteExchange records one completed AND exchange of n gates against
// the attached instruments. preBytes is the conn's TotalBytes before
// the exchange; sp the span opened at its start.
func (p *Party) noteExchange(sp obs.Span, n int, preBytes int64) {
	wire := p.conn.Stats().TotalBytes() - preBytes
	p.mANDs.Add(uint64(n))
	p.mExchanges.Inc()
	if wire > 0 {
		p.mWire.Add(uint64(wire))
	}
	if sp.Live() {
		sp.EndArgs(map[string]any{"ands": n, "wire_bytes": wire})
	}
}

// NewParty assembles a GMW party from its two correlation pools and
// runs a one-round role handshake with the peer: exactly one of the
// two parties must set first=true (by convention the protocol
// initiator). If both or neither claim the role, both sides fail with
// ErrRoleConflict instead of silently computing wrong values. A party
// draws no local randomness: its AND masks come from the OT pads, so
// its wire transcript is a pure function of (pools, inputs, protocol
// calls).
func NewParty(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) (*Party, error) {
	p := &Party{
		conn:  conn,
		hash:  aesprg.NewHash(),
		Out:   out,
		In:    in,
		first: first,
	}
	role := byte(0)
	if first {
		role = 1
	}
	if err := conn.Send([]byte{handshakeMagic, role}); err != nil {
		return nil, fmt.Errorf("gmw: handshake send: %w", err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("gmw: handshake recv: %w", err)
	}
	if len(msg) != 2 || msg[0] != handshakeMagic {
		return nil, fmt.Errorf("gmw: handshake: unexpected message %x", msg)
	}
	if (msg[1] == 1) == first {
		return nil, fmt.Errorf("%w: both parties set first=%v", ErrRoleConflict, first)
	}
	return p, nil
}

// NewPublicPacked builds a share of a public constant: the first party
// holds the value, the other zero.
func (p *Party) NewPublicPacked(bits []bool) PackedShare {
	if p.first {
		return PackBools(bits)
	}
	return NewPacked(len(bits))
}

// NewPrivatePacked builds a share of this party's private input: this
// party holds the bits, the peer's share is zero. Both parties must
// call it in matching order, with mine telling whose input it is.
func (p *Party) NewPrivatePacked(bits []bool, mine bool) PackedShare {
	if mine {
		return PackBools(bits)
	}
	return NewPacked(len(bits))
}

// NewPrivateVec shares this party's private value vector as bit-planes.
func (p *Party) NewPrivateVec(vals []uint64, width int, mine bool) []PackedShare {
	if mine {
		return PackVec(vals, width)
	}
	return zeroPlanes(len(vals), width)
}

func zeroPlanes(n, width int) []PackedShare {
	planes := make([]PackedShare, width)
	for i := range planes {
		planes[i] = NewPacked(n)
	}
	return planes
}

// Ordered runs one exchange's two halves in the order the roles fix:
// the first party sends, then receives; its peer receives, then sends.
// Every two-way exchange of this engine and of internal/arith (through
// its Bool party) goes through here, so the message flights interleave
// deterministically. It stops at the first error.
func (p *Party) Ordered(send, recv func() error) error {
	if !p.first {
		send, recv = recv, send
	}
	if err := send(); err != nil {
		return err
	}
	return recv()
}

// checkBudget fails an AND layer before any network traffic when the
// pools cannot cover it. Both parties' pools advance in lockstep, so
// both sides fail locally and loudly instead of deadlocking with one
// party mid-exchange.
func (p *Party) checkBudget(n int) error {
	if p.Out.Remaining() < n || p.In.Remaining() < n {
		return fmt.Errorf("gmw: AND layer of %d gates: %w (out %d, in %d)",
			n, cot.ErrExhausted, p.Out.Remaining(), p.In.Remaining())
	}
	return nil
}

// Budget is the correlation/exchange cost of a whole schedule of
// batched AND layers — what a circuit compiler or layer planner knows
// up front, before the first gate fires.
type Budget struct {
	// ANDGates is the total AND gate count across every layer of the
	// schedule; each gate consumes one COT from each direction pool.
	ANDGates int
	// Exchanges is the number of batched two-flight OT exchanges the
	// schedule will issue (its AND depth). It does not affect pool
	// consumption but sizes round budgets and appears in errors.
	Exchanges int
}

// Preflight verifies both direction pools can cover an entire schedule
// before any of it runs. The per-layer checkBudget guard inside
// AndPacked only catches exhaustion at the layer that trips it —
// by then earlier layers have consumed their correlations and the
// computation dies mid-circuit. Preflighting the whole budget makes an
// under-provisioned pool fail loudly before the first flight, on both
// sides (pools advance in lockstep), with nothing consumed and the
// peers still in sync.
func (p *Party) Preflight(b Budget) error {
	if b.ANDGates < 0 {
		return fmt.Errorf("gmw: preflight: negative AND budget %d", b.ANDGates)
	}
	if out, in := p.Out.Remaining(), p.In.Remaining(); out < b.ANDGates || in < b.ANDGates {
		return fmt.Errorf("gmw: preflight: schedule of %d AND gates in %d exchanges: %w (out %d, in %d)",
			b.ANDGates, b.Exchanges, cot.ErrExhausted, out, in)
	}
	return nil
}

// AndPacked evaluates element-wise AND over packed shares in a single
// two-flight OT exchange, consuming two bit-payload correlated OTs per
// bit (one in each direction, 4 bits of wire per AND gate total).
func (p *Party) AndPacked(a, b PackedShare) (PackedShare, error) {
	if a.n != b.n {
		return PackedShare{}, fmt.Errorf("gmw: AndPacked length mismatch: %d vs %d", a.n, b.n)
	}
	n := a.n
	if err := p.checkBudget(n); err != nil {
		return PackedShare{}, err
	}
	// Local term a_i·b_i.
	out := PackedShare{n: n, limbs: make([]uint64, len(a.limbs))}
	for i := range out.limbs {
		out.limbs[i] = a.limbs[i] & b.limbs[i]
	}
	if n == 0 {
		return out, nil
	}
	var sp obs.Span
	var preBytes int64
	if p.observing() {
		preBytes = p.conn.Stats().TotalBytes()
		sp = p.trace.Span("gmw.exchange", "gmw", p.tid)
	}

	send := func() error {
		// Cross term a_mine·b_peer: the peer's output is s ⊕ b_peer·a_mine.
		s, err := cot.SendCorrelatedBits(p.conn, p.Out, p.hash, a.limbs, n)
		if err != nil {
			return err
		}
		for i := range out.limbs {
			out.limbs[i] ^= s[i]
		}
		return nil
	}
	recv := func() error {
		got, err := cot.ReceiveCorrelatedBits(p.conn, p.In, p.hash, b.limbs, n)
		if err != nil {
			return err
		}
		for i := range out.limbs {
			out.limbs[i] ^= got[i]
		}
		return nil
	}

	if err := p.Ordered(send, recv); err != nil {
		return PackedShare{}, err
	}
	if p.observing() {
		p.noteExchange(sp, n, preBytes)
	}
	p.ANDGates += n
	p.Exchanges++
	return out, nil
}

// AndPackedMany evaluates every (a, b) pair element-wise in ONE OT
// exchange: the level-batching primitive. Callers collect all
// independent AND gates of a circuit level and issue them as a single
// call; the engine bit-concatenates the operands (no alignment
// padding, so a layer consumes exactly as many COTs as it has gates)
// and splits the results back out. Both parties must pass the same
// number of pairs with matching lengths in the same order.
func (p *Party) AndPackedMany(pairs [][2]PackedShare) ([]PackedShare, error) {
	var a, b PackedShare
	for i, pr := range pairs {
		if pr[0].n != pr[1].n {
			return nil, fmt.Errorf("gmw: AndPackedMany pair %d length mismatch: %d vs %d", i, pr[0].n, pr[1].n)
		}
		a.appendBits(pr[0])
		b.appendBits(pr[1])
	}
	z, err := p.AndPacked(a, b)
	if err != nil {
		return nil, err
	}
	out := make([]PackedShare, len(pairs))
	off := 0
	for i, pr := range pairs {
		out[i] = z.sliceBits(off, pr[0].n)
		off += pr[0].n
	}
	return out, nil
}

// revealRaw opens a packed share, returning the plaintext still packed.
func (p *Party) revealRaw(a PackedShare) (PackedShare, error) {
	wire := transport.PackedToWire(a.limbs, a.n)
	var peerMsg []byte
	err := p.Ordered(func() error { return p.conn.Send(wire) }, func() (err error) {
		peerMsg, err = p.conn.Recv()
		return err
	})
	if err != nil {
		return PackedShare{}, err
	}
	peer, err := transport.WireToPacked(peerMsg, a.n)
	if err != nil {
		return PackedShare{}, err
	}
	open := PackedShare{n: a.n, limbs: make([]uint64, len(a.limbs))}
	for i := range open.limbs {
		open.limbs[i] = a.limbs[i] ^ peer[i]
	}
	return open, nil
}

// RevealPacked opens a packed share to both parties.
func (p *Party) RevealPacked(a PackedShare) ([]bool, error) {
	open, err := p.revealRaw(a)
	if err != nil {
		return nil, err
	}
	return open.Bools(), nil
}

// RevealPlanes opens a batch of packed shares in a single exchange,
// returning the plaintext still in the packed plane layout. The
// planes may have differing lengths; both parties must pass matching
// shapes in matching order.
func (p *Party) RevealPlanes(planes []PackedShare) ([]PackedShare, error) {
	var all PackedShare
	for _, pl := range planes {
		all.appendBits(pl)
	}
	open, err := p.revealRaw(all)
	if err != nil {
		return nil, err
	}
	opened := make([]PackedShare, len(planes))
	off := 0
	for i, pl := range planes {
		opened[i] = open.sliceBits(off, pl.n)
		off += pl.n
	}
	return opened, nil
}

// RevealVec opens a bit-plane vector in a single exchange, returning
// the plaintext values. All planes must have the same length; a
// mismatch fails before any traffic, so both parties (passing
// matching shapes) fail locally and stay in sync.
func (p *Party) RevealVec(planes []PackedShare) ([]uint64, error) {
	for i, pl := range planes {
		if pl.n != planes[0].n {
			return nil, fmt.Errorf("gmw: RevealVec plane %d length mismatch: %d vs %d", i, pl.n, planes[0].n)
		}
	}
	opened, err := p.RevealPlanes(planes)
	if err != nil {
		return nil, err
	}
	return UnpackVec(opened), nil
}

// GreaterThanVec compares n pairs of width-w values held as LSB-first
// bit-planes (see PackVec), returning an n-bit share with bit j set
// iff x_j > y_j (unsigned). The comparator is a parallel-prefix
// network: one batched AND layer computes per-bit generate signals
// g_i = x_i ∧ ¬y_i (the equality signals e_i = ¬(x_i⊕y_i) are free),
// then ceil(log2 w) combine rounds merge adjacent segments
//
//	gt = gt_hi ⊕ (eq_hi ∧ gt_lo)    eq = eq_hi ∧ eq_lo
//
// (gt_hi and eq_hi∧gt_lo are mutually exclusive, so XOR is OR). Every
// round is ONE two-flight OT exchange regardless of n and w; the total
// cost is (3w-2)·n AND gates in 1+ceil(log2 w) exchanges.
func (p *Party) GreaterThanVec(x, y []PackedShare) (PackedShare, error) {
	if len(x) != len(y) || len(x) == 0 {
		return PackedShare{}, fmt.Errorf("gmw: GreaterThanVec needs matching nonzero widths, got %d vs %d", len(x), len(y))
	}
	n := x[0].n
	for i := range x {
		if x[i].n != n || y[i].n != n {
			return PackedShare{}, fmt.Errorf("gmw: GreaterThanVec plane %d length mismatch", i)
		}
	}
	w := len(x)
	pairs := make([][2]PackedShare, w)
	for i := range pairs {
		pairs[i] = [2]PackedShare{x[i], p.NotPacked(y[i])}
	}
	g, err := p.AndPackedMany(pairs)
	if err != nil {
		return PackedShare{}, err
	}
	e := make([]PackedShare, w)
	for i := range e {
		e[i] = p.NotPacked(xorPacked(x[i], y[i]))
	}
	for len(g) > 1 {
		m := len(g) / 2
		pairs = pairs[:0]
		for k := 0; k < m; k++ {
			lo, hi := 2*k, 2*k+1
			pairs = append(pairs, [2]PackedShare{e[hi], g[lo]}, [2]PackedShare{e[hi], e[lo]})
		}
		res, err := p.AndPackedMany(pairs)
		if err != nil {
			return PackedShare{}, err
		}
		ng := make([]PackedShare, 0, m+1)
		ne := make([]PackedShare, 0, m+1)
		for k := 0; k < m; k++ {
			ng = append(ng, xorPacked(g[2*k+1], res[2*k]))
			ne = append(ne, res[2*k+1])
		}
		if len(g)%2 == 1 {
			ng = append(ng, g[len(g)-1])
			ne = append(ne, e[len(e)-1])
		}
		g, e = ng, ne
	}
	return g[0], nil
}

// ComparatorExchanges returns the batched OT exchanges a width-w
// GreaterThanVec costs: one generate layer plus a log-depth prefix
// tree. Useful for sizing pools and asserting round budgets.
func ComparatorExchanges(width int) int {
	if width <= 1 {
		return 1
	}
	return 1 + bits.Len(uint(width-1))
}

// MuxVec selects element-wise between two bit-plane vectors by an
// n-bit shared condition vector: out_j = c_j ? a_j : b_j =
// b_j ⊕ c_j·(a_j⊕b_j) — the multiplexer CrypTFlow2 builds ReLU from
// (§5.2 mentions its two-directional OT use). The whole layer — every
// plane of every element — is one batched exchange of n·w AND gates.
func (p *Party) MuxVec(c PackedShare, a, b []PackedShare) ([]PackedShare, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("gmw: MuxVec width mismatch: %d vs %d", len(a), len(b))
	}
	pairs := make([][2]PackedShare, len(a))
	for i := range a {
		if a[i].n != c.n || b[i].n != c.n {
			return nil, fmt.Errorf("gmw: MuxVec plane %d length mismatch", i)
		}
		pairs[i] = [2]PackedShare{c, xorPacked(a[i], b[i])}
	}
	t, err := p.AndPackedMany(pairs)
	if err != nil {
		return nil, err
	}
	out := make([]PackedShare, len(a))
	for i := range out {
		out[i] = xorPacked(b[i], t[i])
	}
	return out, nil
}

// ReLUVec zeroes every two's-complement value whose sign bit (the
// MSB plane) is set and keeps the rest — the GMW half of a ReLU layer
// once Boolean shares of the activations exist. One batched exchange
// of n·w AND gates: out_i = ¬sign ∧ x_i.
func (p *Party) ReLUVec(x []PackedShare) ([]PackedShare, error) {
	if len(x) == 0 {
		return nil, nil
	}
	keep := p.NotPacked(x[len(x)-1])
	pairs := make([][2]PackedShare, len(x))
	for i := range pairs {
		pairs[i] = [2]PackedShare{keep, x[i]}
	}
	return p.AndPackedMany(pairs)
}
