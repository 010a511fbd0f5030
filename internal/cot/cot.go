// Package cot defines correlated-OT stores and the oblivious-transfer
// sub-protocols built on them.
//
// A COT correlation (Figure 2 of the paper) gives the sender random
// blocks r0 with a global Δ (r1 = r0 ⊕ Δ implied) and the receiver a
// random bit b with r_b = r0 ⊕ b·Δ. The package converts pools of such
// correlations into chosen-message 1-out-of-2 OT with block, bit or
// word messages (SendChosen, SendChosenBits, SendChosenWords and their
// receive twins): one exchange, the classic Beaver derandomization plus
// a correlation-robust hash, at every message width. Its correlated
// mode (SendCorrelatedWords, SendCorrelatedBits and their twins) serves
// the pairs (s, s + x) of Gilboa products, B2A and GMW AND gates with
// one ciphertext per OT, s being the sender's own pad. The exchange
// itself (SenderPool.Open, ReceiverPool.Open) is exported for
// protocols that frame their own reply, such as spcot's batched
// puncturing.
package cot

import (
	"errors"
	"fmt"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/transport"
)

// ErrExhausted is returned when a pool has fewer correlations left than
// a protocol step needs.
var ErrExhausted = errors.New("cot: correlation pool exhausted")

// SenderPool holds the sender's side of a batch of COT correlations.
type SenderPool struct {
	Delta block.Block
	r0    []block.Block
	used  int
}

// ReceiverPool holds the receiver's side of a batch of COT correlations.
type ReceiverPool struct {
	bits   []bool
	blocks []block.Block
	used   int
}

// NewSenderPool wraps correlations (r0 values) under the global Delta.
func NewSenderPool(delta block.Block, r0 []block.Block) *SenderPool {
	return &SenderPool{Delta: delta, r0: r0}
}

// NewReceiverPool wraps correlations (choice bits and r_b values). A
// bits/blocks length mismatch is reported as an error, matching the
// error discipline of the pool-exhaustion paths.
func NewReceiverPool(bits []bool, blocks []block.Block) (*ReceiverPool, error) {
	if len(bits) != len(blocks) {
		return nil, fmt.Errorf("cot: bits/blocks length mismatch: %d bits, %d blocks", len(bits), len(blocks))
	}
	return &ReceiverPool{bits: bits, blocks: blocks}, nil
}

// Remaining reports how many unconsumed correlations are left.
func (p *SenderPool) Remaining() int   { return len(p.r0) - p.used }
func (p *ReceiverPool) Remaining() int { return len(p.bits) - p.used }

// TakeBlocks consumes n correlations, returning their r0 blocks. Used
// when correlations feed a local computation (the LPN input) rather
// than an OT sub-protocol.
func (p *SenderPool) TakeBlocks(n int) ([]block.Block, error) {
	_, blocks, err := p.take(n)
	return blocks, err
}

// Take consumes n correlations, returning choice bits and r_b blocks.
func (p *ReceiverPool) Take(n int) ([]bool, []block.Block, error) {
	_, bits, blocks, err := p.take(n)
	return bits, blocks, err
}

// take advances the pool cursor by n, returning the starting offset.
func (p *SenderPool) take(n int) (int, []block.Block, error) {
	if p.Remaining() < n {
		return 0, nil, fmt.Errorf("%w: need %d, have %d", ErrExhausted, n, p.Remaining())
	}
	off := p.used
	p.used += n
	return off, p.r0[off : off+n], nil
}

func (p *ReceiverPool) take(n int) (int, []bool, []block.Block, error) {
	if p.Remaining() < n {
		return 0, nil, nil, fmt.Errorf("%w: need %d, have %d", ErrExhausted, n, p.Remaining())
	}
	off := p.used
	p.used += n
	return off, p.bits[off : off+n], p.blocks[off : off+n], nil
}

// One chosen-OT exchange serves every payload width. n instances with
// w_i-bit messages (m0_i, m1_i), w_i in [0, 128], consume one COT each:
//
//  1. both parties take the next n COTs from their pools; with off the
//     pool cursor before the take, instance i hashes under tweak off+i,
//     so tweaks restart with every pool and stay in lockstep because
//     the two pools do;
//  2. the receiver sends the packed corrections d_i = c_i ⊕ b_i
//     (⌈n/8⌉ bytes);
//  3. the sender replies with one ciphertext frame holding ct0_i then
//     ct1_i for each instance in order, w_i bits each, packed tightly
//     LSB-first at a running bit offset (⌈2·Σw_i/8⌉ bytes), where
//
//	ct0_i = (m0_i ⊕ H(r_{d_i}, off+i))   mod 2^w_i
//	ct1_i = (m1_i ⊕ H(r_{1-d_i}, off+i)) mod 2^w_i
//
//     with r_d = r0 ⊕ d·Δ; the receiver, holding r_{b_i}, can unmask
//     exactly ct_{c_i}.
//
// SendChosen (w = 128: the endpoints' chosen OT), SendChosenBits
// (w = 1) and SendChosenWords (w_i ≤ 64) differ only in how they read
// and write messages, and so do the correlated mode's two (below); spcot
// frames its own 128-bit reply on SenderPool.Open. Each keeps its own
// per-instance loop over the shared helpers below, so the hot loops
// stay monomorphic; the pads come padSpan instances at a time, one
// Hash.SumBlocks kernel call per side. Both peers derive the frame size
// from their arguments, so SendBytes' chunked framing reassembles
// frames past transport.MaxMessage.

// packedBytes is the size of an LSB-first frame of the given bit count.
func packedBytes(bits int) int { return (bits + 7) / 8 }

// SendExchange is the sender's state of one exchange once the
// receiver's corrections arrived: steps 1 and 2 above. The caller
// masks instance i's pair with its Pads and ships the reply frame.
type SendExchange struct {
	off   int
	r0    []block.Block
	delta block.Block
	ds    []uint64
}

// Open takes n COTs and receives the peer's packed corrections, a
// frame of exactly ⌈n/8⌉ bytes.
func (p *SenderPool) Open(conn transport.Conn, n int) (SendExchange, error) {
	off, r0, err := p.take(n)
	if err != nil {
		return SendExchange{}, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return SendExchange{}, err
	}
	ds, err := transport.WireToPacked(msg, n)
	return SendExchange{off: off, r0: r0, delta: p.Delta, ds: ds}, err
}

// Pos is the pool cursor of instance i — its hash tweak.
func (x *SendExchange) Pos(i int) int { return x.off + i }

// Pads writes the pads of instances lo, …, lo+len(p0)-1: p0[j] =
// H(r_{d_i}) masks m0_i and p1[j] = H(r_{1-d_i}) masks m1_i, i = lo+j.
// p1 is as long as p0.
func (x *SendExchange) Pads(h *aesprg.Hash, lo int, p0, p1 []block.Block) {
	p1 = p1[:len(p0)]
	for j := range p0 {
		r := x.r0[lo+j]
		if bit(x.ds, lo+j) == 1 {
			r = r.Xor(x.delta)
		}
		p0[j], p1[j] = r, r.Xor(x.delta)
	}
	t := uint64(x.Pos(lo))
	h.SumBlocks(p0, p0, t)
	h.SumBlocks(p1, p1, t)
}

// padSpan bounds the instances one Pads call covers in the chosen-OT
// loops, so their pad buffer is at most 2·padSpan blocks (16 KiB)
// whatever n is.
const padSpan = 512

// spans calls f on the exchange's instances padSpan at a time, with the
// span's pads from one reused buffer: p0[j] and p1[j] are instance
// lo+j's.
func (x *SendExchange) spans(h *aesprg.Hash, f func(lo int, p0, p1 []block.Block)) {
	n := len(x.r0)
	w := min(n, padSpan)
	buf := make([]block.Block, 2*w)
	for lo := 0; lo < n; lo += w {
		m := min(w, n-lo)
		p0, p1 := buf[:m], buf[w:w+m]
		x.Pads(h, lo, p0, p1)
		f(lo, p0, p1)
	}
}

// RecvExchange is the receiver's state of one exchange once its
// corrections are sent. Its Pads unmask the chosen ciphertexts.
type RecvExchange struct {
	off int
	rb  []block.Block
}

// Open takes n COTs and sends the corrections for the limb-packed
// choices; choice bits past n are ignored.
func (p *ReceiverPool) Open(conn transport.Conn, choices []uint64, n int) (RecvExchange, error) {
	off, bits, rb, err := p.take(n)
	if err != nil {
		return RecvExchange{}, err
	}
	ds := make([]uint64, transport.PackedLimbs(n))
	for i, b := range bits {
		if b {
			setBit(ds, i, 1)
		}
	}
	for j := range ds {
		ds[j] ^= choices[j]
	}
	if r := uint(n % 64); r != 0 {
		ds[len(ds)-1] &= 1<<r - 1
	}
	return RecvExchange{off: off, rb: rb}, conn.Send(transport.PackedToWire(ds, n))
}

// Pos is the pool cursor of instance i — its hash tweak.
func (x *RecvExchange) Pos(i int) int { return x.off + i }

// Pads writes H(r_{b_i}) into p[j] for i = lo+j: the pad that unmasks
// instance i's chosen ciphertext.
func (x *RecvExchange) Pads(h *aesprg.Hash, lo int, p []block.Block) {
	h.SumBlocks(p, x.rb[lo:lo+len(p)], uint64(x.Pos(lo)))
}

// spans is SendExchange.spans for the receiver: p[j] is instance
// lo+j's pad.
func (x *RecvExchange) spans(h *aesprg.Hash, f func(lo int, p []block.Block)) {
	n := len(x.rb)
	w := min(n, padSpan)
	buf := make([]block.Block, w)
	for lo := 0; lo < n; lo += w {
		p := buf[:min(w, n-lo)]
		x.Pads(h, lo, p)
		f(lo, p)
	}
}

// bit reads bit i of a limb-packed vector.
func bit(limbs []uint64, i int) uint64 { return limbs[i/64] >> (uint(i) % 64) & 1 }

// setBit ORs v (0 or 1) into bit i of a limb-packed vector.
func setBit(limbs []uint64, i int, v uint64) { limbs[i/64] |= v << (uint(i) % 64) }

// mask is the low-w-bit mask, w in [0, 64] (a Go shift by 64 yields 0).
func mask(w int) uint64 { return 1<<uint(w) - 1 }

// putField ORs v mod 2^w into the limb-packed frame f at bit offset
// off, w in [0, 64]; a 128-bit field is two 64-bit ones.
func putField(f []uint64, off int, v uint64, w int) {
	if w == 0 {
		return
	}
	v &= mask(w)
	i, s := off/64, uint(off%64)
	f[i] |= v << s
	if s+uint(w) > 64 {
		f[i+1] |= v >> (64 - s)
	}
}

// getField reads the w-bit field at bit offset off of the frame f.
func getField(f []uint64, off int, w int) uint64 {
	if w == 0 {
		return 0
	}
	i, s := off/64, uint(off%64)
	v := f[i] >> s
	if s+uint(w) > 64 {
		v |= f[i+1] << (64 - s)
	}
	return v & mask(w)
}

// sendFrame ships the first bits bits of the ciphertext frame f.
func sendFrame(conn transport.Conn, f []uint64, bits int) error {
	return transport.SendBytes(conn, transport.PackedToWire(f, bits))
}

// recvFrame receives a ciphertext frame of the given bit count.
func recvFrame(conn transport.Conn, bits int) ([]uint64, error) {
	buf, err := transport.RecvBytes(conn, packedBytes(bits))
	if err != nil {
		return nil, fmt.Errorf("cot: OT reply frame: %w", err)
	}
	return transport.WireToPacked(buf, bits)
}

// SendChosen runs the sender side of len(msgs) chosen OTs with 128-bit
// messages: msgs[i] is the pair (m0_i, m1_i).
func SendChosen(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, msgs [][2]block.Block) error {
	n := len(msgs)
	x, err := pool.Open(conn, n)
	if err != nil {
		return err
	}
	f := make([]uint64, 4*n)
	x.spans(h, func(lo int, p0, p1 []block.Block) {
		for j, m := range msgs[lo : lo+len(p0)] {
			i := lo + j
			ct0, ct1 := m[0].Xor(p0[j]), m[1].Xor(p1[j])
			putField(f, 256*i, ct0.Lo, 64)
			putField(f, 256*i+64, ct0.Hi, 64)
			putField(f, 256*i+128, ct1.Lo, 64)
			putField(f, 256*i+192, ct1.Hi, 64)
		}
	})
	return sendFrame(conn, f, 256*n)
}

// ReceiveChosen runs the receiver side of SendChosen; choices[i]
// selects which of the sender's two messages instance i yields.
func ReceiveChosen(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []bool) ([]block.Block, error) {
	n := len(choices)
	cs := make([]uint64, transport.PackedLimbs(n))
	for i, c := range choices {
		if c {
			setBit(cs, i, 1)
		}
	}
	x, err := pool.Open(conn, cs, n)
	if err != nil {
		return nil, err
	}
	f, err := recvFrame(conn, 256*n)
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, n)
	x.spans(h, func(lo int, p []block.Block) {
		for j, pad := range p {
			i := lo + j
			off := 256*i + 128*int(bit(cs, i))
			ct := block.New(getField(f, off, 64), getField(f, off+64, 64))
			out[i] = ct.Xor(pad)
		}
	})
	return out, nil
}

// SendChosenBits runs the sender side of n chosen OTs with 1-bit
// messages: m0 and m1 are limb-packed bit vectors (64 bits per uint64,
// LSB-first) whose bit i is instance i's message pair. Against
// SendChosen's 256 ciphertext bits per instance the reply carries 2.
func SendChosenBits(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, m0, m1 []uint64, n int) error {
	if limbs := transport.PackedLimbs(n); len(m0) < limbs || len(m1) < limbs {
		return fmt.Errorf("cot: SendChosenBits needs %d limbs for %d bits, got %d/%d", limbs, n, len(m0), len(m1))
	}
	x, err := pool.Open(conn, n)
	if err != nil {
		return err
	}
	f := make([]uint64, transport.PackedLimbs(2*n))
	x.spans(h, func(lo int, p0, p1 []block.Block) {
		for j := range p0 {
			i := lo + j
			putField(f, 2*i, bit(m0, i)^p0[j].Lo, 1)
			putField(f, 2*i+1, bit(m1, i)^p1[j].Lo, 1)
		}
	})
	return sendFrame(conn, f, 2*n)
}

// ReceiveChosenBits runs the receiver side of SendChosenBits: choices
// is a limb-packed choice-bit vector, and the result is the selected
// message bits in the same packing (trailing bits past n are zero).
func ReceiveChosenBits(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, n int) ([]uint64, error) {
	limbs := transport.PackedLimbs(n)
	if len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveChosenBits needs %d limbs for %d bits, got %d", limbs, n, len(choices))
	}
	x, err := pool.Open(conn, choices, n)
	if err != nil {
		return nil, err
	}
	f, err := recvFrame(conn, 2*n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, limbs)
	x.spans(h, func(lo int, p []block.Block) {
		for j, pad := range p {
			i := lo + j
			ct := getField(f, 2*i+int(bit(choices, i)), 1)
			setBit(out, i, ct^pad.Lo&1)
		}
	})
	return out, nil
}

// wordBits checks that every word width is in [0, 64] and returns
// their sum.
func wordBits(widths []int) (int, error) {
	sum := 0
	for i, w := range widths {
		if w < 0 || w > 64 {
			return 0, fmt.Errorf("cot: word OT %d has width %d, want 0..64", i, w)
		}
		sum += w
	}
	return sum, nil
}

// SendChosenWords runs the sender side of len(widths) chosen OTs whose
// messages are uint64 words taken mod 2^widths[i], widths[i] in
// [0, 64]. Callers whose high message bits are irrelevant (in a Gilboa
// product, bit i of the multiplier only needs the product mod
// 2^(64-i)) pay only for the bits that matter — at widths 64..1 that
// is 2x less payload than fixed 64-bit words and 3.9x less than
// SendChosen's 128-bit blocks. A width of 0 is legal: the instance
// consumes its COT, keeping both pools in lockstep, but ships no bits.
func SendChosenWords(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, m0, m1 []uint64, widths []int) error {
	n := len(widths)
	if len(m0) != n || len(m1) != n {
		return fmt.Errorf("cot: SendChosenWords needs %d messages per side, got %d/%d", n, len(m0), len(m1))
	}
	bits, err := wordBits(widths)
	if err != nil {
		return err
	}
	x, err := pool.Open(conn, n)
	if err != nil {
		return err
	}
	f := make([]uint64, transport.PackedLimbs(2*bits))
	off := 0
	x.spans(h, func(lo int, p0, p1 []block.Block) {
		for j, w := range widths[lo : lo+len(p0)] {
			i := lo + j
			putField(f, off, m0[i]^p0[j].Lo, w)
			putField(f, off+w, m1[i]^p1[j].Lo, w)
			off += 2 * w
		}
	})
	return sendFrame(conn, f, 2*bits)
}

// ReceiveChosenWords runs the receiver side of SendChosenWords:
// choices is a limb-packed choice-bit vector (bit i selects instance
// i's message) and the result is the selected words, each reduced mod
// 2^widths[i].
func ReceiveChosenWords(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, widths []int) ([]uint64, error) {
	n := len(widths)
	if limbs := transport.PackedLimbs(n); len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveChosenWords needs %d limbs for %d choices, got %d", limbs, n, len(choices))
	}
	bits, err := wordBits(widths)
	if err != nil {
		return nil, err
	}
	x, err := pool.Open(conn, choices, n)
	if err != nil {
		return nil, err
	}
	f, err := recvFrame(conn, 2*bits)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	off := 0
	x.spans(h, func(lo int, p []block.Block) {
		for j, pad := range p {
			i, w := lo+j, widths[lo+j]
			ct := getField(f, off+int(bit(choices, i))*w, w)
			out[i] = ct ^ pad.Lo&mask(w)
			off += 2 * w
		}
	})
	return out, nil
}

// Correlated OT (C-OT; Asharov, Lindell, Schneider and Zohner,
// CCS'13) is the exchange above for pairs of the form (s_i, s_i + x_i)
// whose s_i is any random value — the cross terms of a Gilboa product,
// a B2A plane or a GMW AND gate. The sender does not choose s_i: it
// takes its own pad, s_i = H(r_{d_i}, off+i) mod 2^w_i, which the
// receiver holds exactly when c_i = 0, and ships only the second
// ciphertext, w_i bits at a running bit offset (⌈Σw_i/8⌉ bytes),
//
//	ct_i = (H(r_{1-d_i}, off+i) − s_i − x_i) mod 2^w_i
//
// (over XOR for bits, one bit per instance: ⌈n/8⌉ bytes). A receiver
// with c_i = 1 holds H(r_{1-d_i}, off+i) and recovers s_i + x_i from
// ct_i. Pools, tweaks and the correction frame are the chosen
// exchange's; the reply carries one ciphertext per OT instead of two.

// SendCorrelatedWords runs the sender side of len(widths) correlated
// OTs over Z_2^widths[i], widths[i] in [0, 64]: x[i] is instance i's
// correlation. It returns the sender's outputs s, each reduced mod
// 2^widths[i]; the peer's ReceiveCorrelatedWords yields s[i] + c_i·x[i]
// mod 2^widths[i].
func SendCorrelatedWords(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, x []uint64, widths []int) ([]uint64, error) {
	n := len(widths)
	if len(x) != n {
		return nil, fmt.Errorf("cot: SendCorrelatedWords needs %d correlations, got %d", n, len(x))
	}
	bits, err := wordBits(widths)
	if err != nil {
		return nil, err
	}
	ex, err := pool.Open(conn, n)
	if err != nil {
		return nil, err
	}
	s := make([]uint64, n)
	f := make([]uint64, transport.PackedLimbs(bits))
	off := 0
	ex.spans(h, func(lo int, p0, p1 []block.Block) {
		for j, w := range widths[lo : lo+len(p0)] {
			i := lo + j
			s[i] = p0[j].Lo & mask(w)
			putField(f, off, p1[j].Lo-s[i]-x[i], w)
			off += w
		}
	})
	if err := sendFrame(conn, f, bits); err != nil {
		return nil, err
	}
	return s, nil
}

// ReceiveCorrelatedWords runs the receiver side of SendCorrelatedWords:
// choices is a limb-packed choice-bit vector, and the result is
// s_i + c_i·x_i mod 2^widths[i] for each instance.
func ReceiveCorrelatedWords(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, widths []int) ([]uint64, error) {
	n := len(widths)
	if limbs := transport.PackedLimbs(n); len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveCorrelatedWords needs %d limbs for %d choices, got %d", limbs, n, len(choices))
	}
	bits, err := wordBits(widths)
	if err != nil {
		return nil, err
	}
	ex, err := pool.Open(conn, choices, n)
	if err != nil {
		return nil, err
	}
	f, err := recvFrame(conn, bits)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	off := 0
	ex.spans(h, func(lo int, p []block.Block) {
		for j, pad := range p {
			i, w := lo+j, widths[lo+j]
			out[i] = (pad.Lo - bit(choices, i)*getField(f, off, w)) & mask(w)
			off += w
		}
	})
	return out, nil
}

// SendCorrelatedBits runs the sender side of n correlated OTs over
// XOR: bit i of the limb-packed x is instance i's correlation. It
// returns the sender's output bits s in the same packing (trailing
// bits past n are zero); the peer's ReceiveCorrelatedBits yields
// s_i ⊕ c_i·x_i. One reply bit per instance is what makes a GMW AND
// gate cost 2 wire bits per OT.
func SendCorrelatedBits(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, x []uint64, n int) ([]uint64, error) {
	limbs := transport.PackedLimbs(n)
	if len(x) < limbs {
		return nil, fmt.Errorf("cot: SendCorrelatedBits needs %d limbs for %d bits, got %d", limbs, n, len(x))
	}
	ex, err := pool.Open(conn, n)
	if err != nil {
		return nil, err
	}
	s := make([]uint64, limbs)
	f := make([]uint64, limbs)
	ex.spans(h, func(lo int, p0, p1 []block.Block) {
		for j := range p0 {
			i := lo + j
			s0 := p0[j].Lo & 1
			setBit(s, i, s0)
			setBit(f, i, (p1[j].Lo^s0^bit(x, i))&1)
		}
	})
	if err := sendFrame(conn, f, n); err != nil {
		return nil, err
	}
	return s, nil
}

// ReceiveCorrelatedBits runs the receiver side of SendCorrelatedBits:
// choices is a limb-packed choice-bit vector, and the result is
// s_i ⊕ c_i·x_i in the same packing (trailing bits past n are zero).
func ReceiveCorrelatedBits(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, n int) ([]uint64, error) {
	limbs := transport.PackedLimbs(n)
	if len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveCorrelatedBits needs %d limbs for %d bits, got %d", limbs, n, len(choices))
	}
	ex, err := pool.Open(conn, choices, n)
	if err != nil {
		return nil, err
	}
	f, err := recvFrame(conn, n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, limbs)
	ex.spans(h, func(lo int, p []block.Block) {
		for j, pad := range p {
			setBit(out, lo+j, pad.Lo&1)
		}
	})
	// f is zero past n (recvFrame), so the tail stays clear.
	for k := range out {
		out[k] ^= choices[k] & f[k]
	}
	return out, nil
}

// RandomPools deals a correlated pair of pools under a random Δ, both
// drawn from one fresh stream (aesprg.NewLocal). This is the "trusted
// dealer" shortcut used by tests and examples that focus on post-init
// behaviour; production initialization goes through internal/iknp (see
// ferret.NewSender).
func RandomPools(n int) (*SenderPool, *ReceiverPool, error) {
	s := aesprg.NewLocal(block.Block{}, block.Block{})
	return PoolsFromStream(s, s.Block(), n)
}

// PoolsFromStream deals a correlated pair of n-COT pools under delta
// with the randomness drawn from s — the dealer behind RandomPools and
// ferret.DealPools. The pairs are only as secret as s (NOT secure
// from a known seed); the dealer sees both halves.
func PoolsFromStream(s *aesprg.Stream, delta block.Block, n int) (*SenderPool, *ReceiverPool, error) {
	r0 := make([]block.Block, n)
	s.Blocks(r0)
	bitsBuf := make([]byte, (n+7)/8)
	s.Fill(bitsBuf)
	bits := make([]bool, n)
	rb := make([]block.Block, n)
	for i := 0; i < n; i++ {
		bits[i] = bitsBuf[i/8]>>uint(i%8)&1 == 1
		rb[i] = r0[i]
		if bits[i] {
			rb[i] = rb[i].Xor(delta)
		}
	}
	rp, err := NewReceiverPool(bits, rb)
	if err != nil {
		return nil, nil, err
	}
	return NewSenderPool(delta, r0), rp, nil
}
