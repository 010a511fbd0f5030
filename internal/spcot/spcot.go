// Package spcot implements the single-point correlated OT sub-protocol
// Π_SPCOT (§2.3.1 and Figure 3(b) of the paper), generalized to the
// hardware-aware m-ary GGM expansion of §4.
//
// One execution with ℓ leaves gives the sender a random vector w of ℓ
// blocks and the receiver a secret index α plus a vector v such that
//
//	w = v ⊕ u·Δ,   u = one-hot at α,
//
// i.e. v[i] = w[i] everywhere except v[α] = w[α] ⊕ Δ.
//
// Puncturing consumes exactly log2(ℓ) COT correlations regardless of
// the tree arity: a binary level costs one chosen OT, an m-ary level
// costs one (m-1)-out-of-m OT which itself burns log2(m) COTs (§4.2).
//
// Every tree's puncturing OTs run as one chosen-OT exchange, however
// many trees there are (Ferret sends all trees' level messages
// together). The receiver's choice bits are the complemented binary
// digits of its α values, so it sends every tree's corrections in one
// frame before any tree is touched; the sender answers with one frame
// holding each tree's sealed section at a fixed offset. Sealing
// (sender) and opening (receiver) are per-tree local work:
//
//	sender:   OpenSender (wire)   →  Seal per tree (local)  →  Reply (wire)
//	receiver: OpenReceiver (wire) →  Open per tree (local)
//
// SendWithSeed/Receive are the one-tree case.
package spcot

import (
	"fmt"
	"math/bits"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ggm"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// COTBudget returns the number of COT correlations one SPCOT execution
// with the given leaf count consumes (= log2(leaves), independent of m).
func COTBudget(leaves int) int {
	budget := 0
	for v := leaves; v > 1; v >>= 1 {
		budget++
	}
	return budget
}

// gadgetDomain separates the per-level all-but-one gadget seeds from
// the GGM expansion of the same root (both are keyed by the secret
// root; distinct domains keep the streams independent).
var gadgetDomain = block.New(0x616231676164, 0x73706367616467)

// gadgetPRG is the fixed PRG of the all-but-one gadget tree. A binary
// AES PRG keeps the gadget independent of the caller's choice of tree
// PRG (it is a different, tiny tree).
var gadgetPRG = prg.New(prg.AES, 2)

// shape is one tree's share of the exchange. Tree i owns exchange
// instances [i·budget, (i+1)·budget), level-major, so an instance's
// pool cursor and hash tweak depend only on its tree and level, never
// on which worker seals it. It also owns reply blocks
// [i·section, (i+1)·section), laid out level by level:
//
//	binary level:  ct0 ‖ ct1 of the level's chosen OT (2 blocks)
//	m-ary level:   ct0 ‖ ct1 of each of the log2(m) gadget OTs, then
//	               the m position sums masked by the gadget leaves
//	then:          the node-recovery block XOR(w) ⊕ Δ
type shape struct {
	p       prg.PRG
	leaves  int
	arities []int
	gadgets [][]int // the gadget tree's arities per m-ary level
	budget  int
	section int // reply blocks per tree
}

func newShape(p prg.PRG, leaves int) (shape, error) {
	if leaves < 2 || bits.OnesCount(uint(leaves)) != 1 {
		return shape{}, fmt.Errorf("spcot: %d leaves, want a power of two >= 2", leaves)
	}
	return layout(p, leaves), nil
}

// layout is newShape without the leaf-count check.
func layout(p prg.PRG, leaves int) shape {
	sh := shape{p: p, leaves: leaves, arities: ggm.LevelArities(leaves, p.Arity()),
		budget: COTBudget(leaves), section: 1}
	sh.gadgets = make([][]int, len(sh.arities))
	for i, a := range sh.arities {
		sh.section += 2 * bits.TrailingZeros(uint(a))
		if a > 2 {
			sh.gadgets[i] = ggm.LevelArities(a, 2)
			sh.section += a
		}
	}
	return sh
}

// ExchangeBytes is the wire size of one exchange over trees trees of
// `leaves` leaves (a power of two) under p: the receiver's correction
// frame, one bit per COT, plus the sender's reply of trees sections.
func ExchangeBytes(p prg.PRG, leaves, trees int) int64 {
	sh := layout(p, leaves)
	return int64((trees*sh.budget+7)/8) + int64(trees*sh.section*block.Size)
}

// Scratch is one worker's reusable buffers: the per-level position
// sums, an ℓ-block tree for outputs shorter than ℓ, and the gadget
// tree's leaves and sums.
type Scratch struct {
	sums       [][]block.Block
	tree       []block.Block
	gadget     []block.Block
	gadgetSums [][]block.Block
}

// Scratch returns buffers sized for this exchange's trees.
func (sh *shape) Scratch() *Scratch {
	sc := &Scratch{sums: make([][]block.Block, len(sh.arities))}
	widest := 2
	for i, a := range sh.arities {
		sc.sums[i] = make([]block.Block, a)
		widest = max(widest, a)
	}
	sc.gadget = make([]block.Block, widest)
	sc.gadgetSums = make([][]block.Block, COTBudget(widest))
	for i := range sc.gadgetSums {
		sc.gadgetSums[i] = make([]block.Block, 2)
	}
	return sc
}

// treeFor returns the buffer tree i is built in: out itself when it
// holds a whole tree, otherwise the worker's ℓ-block scratch (a bucket
// truncated at, or lying beyond, the output's end).
func (sh *shape) treeFor(out []block.Block, sc *Scratch) []block.Block {
	if len(out) == sh.leaves {
		return out
	}
	if sc.tree == nil {
		sc.tree = make([]block.Block, sh.leaves)
	}
	return sc.tree
}

// gadgetFor returns the leaf and sum buffers of a gadget tree.
func (sc *Scratch) gadgetFor(arities []int) ([]block.Block, [][]block.Block) {
	return sc.gadget[:1<<len(arities)], sc.gadgetSums[:len(arities)]
}

// Sender is the sender's half of one exchange over a batch of trees.
type Sender struct {
	shape
	x     cot.SendExchange
	h     *aesprg.Hash
	delta block.Block
	reply []block.Block
}

// OpenSender takes trees·COTBudget(leaves) COTs from pool and reads the
// receiver's correction frame for them.
func OpenSender(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, leaves, trees int) (*Sender, error) {
	sh, err := newShape(p, leaves)
	if err != nil {
		return nil, err
	}
	x, err := pool.Open(conn, trees*sh.budget)
	if err != nil {
		return nil, fmt.Errorf("spcot corrections: %w", err)
	}
	return &Sender{shape: sh, x: x, h: h, delta: pool.Delta, reply: make([]block.Block, trees*sh.section)}, nil
}

// Seal expands tree i from its secret root seed, writes the first
// len(out) leaves into out (len(out) <= ℓ) and seals the tree's reply
// section. The m-ary levels' gadget seeds are derived from the root
// with domain separation, so the section is a deterministic function of
// (seed, pool state). Safe to call concurrently for distinct trees.
func (s *Sender) Seal(i int, seed block.Block, out []block.Block, sc *Scratch) {
	tree := s.treeFor(out, sc)
	ggm.ExpandInto(s.p, seed, s.arities, tree, sc.sums)
	if len(out) < s.leaves {
		copy(out, tree)
	}
	sec := s.reply[i*s.section : (i+1)*s.section]
	k := i * s.budget
	var gs *aesprg.Stream
	for level, a := range s.arities {
		sums := sc.sums[level]
		if a == 2 {
			// Binary level: direct chosen OT of (K0, K1).
			sec, k = s.chosen(sec, k, sums[0], sums[1]), k+1
			continue
		}
		if gs == nil {
			gs = aesprg.NewStream(seed.Xor(gadgetDomain))
		}
		sec, k = s.allButOne(sec, k, sums, s.gadgets[level], gs.Block(), sc)
	}
	// Node recovery (step ④): the XOR of all leaves is the XOR of the
	// last level's position sums.
	sec[0] = block.XorAll(sc.sums[len(s.arities)-1]).Xor(s.delta)
}

// chosen seals exchange instance k's message pair at the head of sec
// and returns the rest of sec.
func (s *Sender) chosen(sec []block.Block, k int, m0, m1 block.Block) []block.Block {
	s.x.Pads(s.h, k, sec[:1], sec[1:2])
	sec[0], sec[1] = m0.Xor(sec[0]), m1.Xor(sec[1])
	return sec[2:]
}

// allButOne seals an (m-1)-out-of-m OT of msgs from exchange instance k
// on: the m-leaf gadget tree's level sums through log2(m) chosen OTs,
// then each message masked by a hash of its gadget leaf under tweak
// base+j, base being the pool cursor after the gadget OTs shifted into
// the high word (domain-separate from the OT tweaks), all m hashed in
// one SumBlocks call. It returns the rest of sec and the next instance.
func (s *Sender) allButOne(sec []block.Block, k int, msgs []block.Block, arities []int, seed block.Block, sc *Scratch) ([]block.Block, int) {
	leaves, sums := sc.gadgetFor(arities)
	ggm.ExpandInto(gadgetPRG, seed, arities, leaves, sums)
	for _, ks := range sums {
		sec, k = s.chosen(sec, k, ks[0], ks[1]), k+1
	}
	s.h.SumBlocks(leaves, leaves, uint64(s.x.Pos(k))<<32)
	for j, m := range msgs {
		sec[j] = m.Xor(leaves[j])
	}
	return sec[len(msgs):], k
}

// Reply ships the sealed sections of every tree as one frame.
func (s *Sender) Reply(conn transport.Conn) error {
	return transport.SendBlocks(conn, s.reply)
}

// SendWithSeed runs the sender side of one SPCOT over conn: expand a
// GGM tree with `leaves` leaves from seed using p, transfer the
// punctured view, and return the leaf vector w. The sender's Δ is
// pool.Delta.
func SendWithSeed(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, leaves int, seed block.Block) ([]block.Block, error) {
	s, err := OpenSender(conn, pool, h, p, leaves, 1)
	if err != nil {
		return nil, err
	}
	w := make([]block.Block, leaves)
	s.Seal(0, seed, w, s.Scratch())
	return w, s.Reply(conn)
}

// Receiver is the receiver's half of one exchange over a batch of
// trees, holding the sender's reply.
type Receiver struct {
	shape
	x      cot.RecvExchange
	h      *aesprg.Hash
	alphas []int
	reply  []block.Block
}

// OpenReceiver takes len(alphas)·COTBudget(leaves) COTs from pool,
// sends the corrections that puncture tree i at alphas[i] (in
// [0, leaves)), and reads the sender's reply. Both frames' lengths are
// checked before any tree reads them.
func OpenReceiver(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, leaves int, alphas []int) (*Receiver, error) {
	sh, err := newShape(p, leaves)
	if err != nil {
		return nil, err
	}
	for i, a := range alphas {
		if a < 0 || a >= leaves {
			return nil, fmt.Errorf("spcot: tree %d: alpha %d out of range [0,%d)", i, a, leaves)
		}
	}
	// Instance i·budget+j picks the level sum opposite bit j of alpha_i
	// (most significant first): mixed-radix digits of power-of-two
	// arities are runs of alpha's binary digits, on the tree and inside
	// each all-but-one gadget alike.
	n := len(alphas) * sh.budget
	choices := make([]uint64, transport.PackedLimbs(n))
	for i, a := range alphas {
		for j := 0; j < sh.budget; j++ {
			if a>>(sh.budget-1-j)&1 == 0 {
				k := i*sh.budget + j
				choices[k/64] |= 1 << (k % 64)
			}
		}
	}
	x, err := pool.Open(conn, choices, n)
	if err != nil {
		return nil, fmt.Errorf("spcot corrections: %w", err)
	}
	reply, err := transport.RecvBlocks(conn, len(alphas)*sh.section)
	if err != nil {
		return nil, fmt.Errorf("spcot reply: %w", err)
	}
	return &Receiver{shape: sh, x: x, h: h, alphas: alphas, reply: reply}, nil
}

// Open rebuilds tree i from its reply section and writes the first
// len(out) entries of v into out (len(out) <= ℓ): every leaf except
// alpha_i, and v[alpha_i] = w[alpha_i] ⊕ Δ from the node-recovery
// block. Safe to call concurrently for distinct trees.
func (r *Receiver) Open(i int, out []block.Block, sc *Scratch) {
	alpha := r.alphas[i]
	sec := r.reply[i*r.section : (i+1)*r.section]
	k := i * r.budget
	below := r.leaves
	for level, a := range r.arities {
		below /= a
		d := alpha / below % a
		sums := sc.sums[level]
		if a == 2 {
			// Binary level: the sum opposite the path digit.
			sums[1-d] = r.chosen(sec, k, 1-d)
			sec, k = sec[2:], k+1
			continue
		}
		sec, k = r.allButOne(sec, k, d, sums, r.gadgets[level], sc)
	}
	tree := r.treeFor(out, sc)
	known := ggm.ReconstructInto(r.p, r.arities, alpha, sc.sums, tree)
	tree[alpha] = sec[0].Xor(known)
	if len(out) < r.leaves {
		copy(out, tree)
	}
}

// chosen unmasks message c of exchange instance k's pair at the head
// of sec.
func (r *Receiver) chosen(sec []block.Block, k, c int) block.Block {
	var pad [1]block.Block
	r.x.Pads(r.h, k, pad[:])
	return sec[c].Xor(pad[0])
}

// allButOne opens Sender.allButOne's transfer into msgs: every message
// except msgs[d], which is left as it was. It returns the rest of sec
// and the next instance.
func (r *Receiver) allButOne(sec []block.Block, k, d int, msgs []block.Block, arities []int, sc *Scratch) ([]block.Block, int) {
	m := len(msgs)
	leaves, sums := sc.gadgetFor(arities)
	below := m
	for _, ks := range sums {
		below /= 2
		c := 1 - d/below%2
		ks[c] = r.chosen(sec, k, c)
		sec, k = sec[2:], k+1
	}
	ggm.ReconstructInto(gadgetPRG, arities, d, sums, leaves)
	r.h.SumBlocks(leaves, leaves, uint64(r.x.Pos(k))<<32)
	for j := range msgs {
		if j != d {
			msgs[j] = sec[j].Xor(leaves[j])
		}
	}
	return sec[m:], k
}

// Receive runs the receiver side of one SPCOT with punctured index
// alpha; it returns v (length leaves) with v[alpha] = w[alpha] ⊕ Δ.
func Receive(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, leaves, alpha int) ([]block.Block, error) {
	r, err := OpenReceiver(conn, pool, h, p, leaves, []int{alpha})
	if err != nil {
		return nil, err
	}
	v := make([]block.Block, leaves)
	r.Open(0, v, r.Scratch())
	return v, nil
}
