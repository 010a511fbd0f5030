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
// The protocol is factored into two phases so the multicore Extend
// pipeline (internal/mpcot) can overlap the compute-bound tree work of
// many executions while keeping their wire flights strictly sequential:
//
//	sender:   ExpandSender (local)  →  (*SenderTree).SendFlights (wire)
//	receiver: ReceiveFlights (wire) →  (*ReceiverFlights).Reconstruct (local)
//
// Send/Receive compose the two phases back to back; the wire transcript
// is identical either way.
package spcot

import (
	"crypto/rand"
	"fmt"

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

// SenderTree is the wire-ready material of one expanded GGM tree: the
// per-level position sums the puncturing OTs transfer, the leaf vector
// w, and the gadget seeds of the m-ary levels' all-but-one OTs.
// Expansion is pure local compute, so many SenderTrees can be built
// concurrently before their flights go out one at a time.
type SenderTree struct {
	sums      [][]block.Block
	gadget    []block.Block // per-level all-but-one seeds (m-ary levels only)
	leaves    []block.Block
	xorLeaves block.Block
}

// ExpandSender runs the sender's local phase: expand a GGM tree with
// the given leaf count from seed under p and precompute every level's
// position sums. The m-ary levels' gadget seeds are derived from the
// secret root with domain separation, so the subsequent SendFlights is
// a deterministic function of (seed, pool state). Safe to call
// concurrently (a prg.PRG is a stateless value).
func ExpandSender(p prg.PRG, leaves int, seed block.Block) *SenderTree {
	arities := ggm.LevelArities(leaves, p.Arity())
	tree := ggm.Expand(p, seed, arities)
	w := tree.Leaves()
	gadget := make([]block.Block, len(arities))
	var gs *aesprg.Stream
	for i, a := range arities {
		if a > 2 {
			if gs == nil {
				gs = aesprg.NewStream(seed.Xor(gadgetDomain))
			}
			gadget[i] = gs.Block()
		}
	}
	return &SenderTree{
		sums:      tree.AllLevelSums(),
		gadget:    gadget,
		leaves:    w,
		xorLeaves: block.XorAll(w),
	}
}

// Leaves returns the tree's leaf vector w (shared storage, do not
// modify).
func (t *SenderTree) Leaves() []block.Block { return t.leaves }

// ReleaseLeaves drops the leaf vector once the caller has copied it
// out. SendFlights needs only the sums, gadget seeds, and leaf XOR, so
// a many-tree caller (mpcot holds all t trees until the flights run)
// halves its peak memory by releasing each tree right after the copy.
func (t *SenderTree) ReleaseLeaves() { t.leaves = nil }

// SendFlights runs the sender's wire phase: one OT per level plus the
// node-recovery message (step ④, XOR of all leaves plus Δ). Flights
// must run in the same sequential order as the receiver's
// ReceiveFlights calls — the pool cursor is part of the transcript.
func (t *SenderTree) SendFlights(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash) error {
	for level, sums := range t.sums {
		if len(sums) == 2 {
			// Binary level: direct chosen OT of (K0, K1).
			if err := cot.SendChosen(conn, pool, h, [][2]block.Block{{sums[0], sums[1]}}); err != nil {
				return fmt.Errorf("spcot level %d: %w", level+1, err)
			}
			continue
		}
		// m-ary level: (m-1)-out-of-m OT of the m position sums.
		if err := cot.SendAllButOneSeeded(conn, pool, h, sums, t.gadget[level]); err != nil {
			return fmt.Errorf("spcot level %d: %w", level+1, err)
		}
	}
	c := t.xorLeaves.Xor(pool.Delta)
	return transport.SendBlocks(conn, []block.Block{c})
}

// Send runs the sender side of one SPCOT over conn: expand a GGM tree
// with `leaves` leaves using p, transfer the punctured view, and return
// the leaf vector w. The sender's Δ is pool.Delta.
func Send(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, leaves int) ([]block.Block, error) {
	var seedBytes [block.Size]byte
	//ironman:allow(randsrc) the GGM tree root must be fresh system entropy per execution; the deterministic variant is SendWithSeed
	if _, err := rand.Read(seedBytes[:]); err != nil {
		return nil, err
	}
	return SendWithSeed(conn, pool, h, p, leaves, block.FromBytes(seedBytes[:]))
}

// SendWithSeed is Send with a caller-provided tree seed (deterministic
// variant used by tests and the benchmark harness).
func SendWithSeed(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, leaves int, seed block.Block) ([]block.Block, error) {
	tree := ExpandSender(p, leaves, seed)
	if err := tree.SendFlights(conn, pool, h); err != nil {
		return nil, err
	}
	return tree.Leaves(), nil
}

// ReceiverFlights is everything the receiver's wire phase collected for
// one execution: the level sums obtained through the puncturing OTs and
// the node-recovery block. Reconstruction from it is pure local
// compute.
type ReceiverFlights struct {
	arities []int
	alpha   int
	sums    [][]block.Block
	c       block.Block
}

// ReceiveFlights runs the receiver's wire phase with punctured index
// alpha: the per-level OTs plus the node-recovery message. The heavy
// tree reconstruction is deferred to (*ReceiverFlights).Reconstruct so
// callers with many executions can parallelize it.
func ReceiveFlights(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, leaves, alpha int) (*ReceiverFlights, error) {
	if alpha < 0 || alpha >= leaves {
		return nil, fmt.Errorf("spcot: alpha %d out of range [0,%d)", alpha, leaves)
	}
	arities := ggm.LevelArities(leaves, p.Arity())
	digits := ggm.Digits(alpha, arities)

	sums := make([][]block.Block, len(arities))
	for i, a := range arities {
		sums[i] = make([]block.Block, a)
		if a == 2 {
			// Binary level: fetch the sum opposite the path digit.
			got, err := cot.ReceiveChosen(conn, pool, h, []bool{digits[i] == 0})
			if err != nil {
				return nil, fmt.Errorf("spcot level %d: %w", i+1, err)
			}
			sums[i][1-digits[i]] = got[0]
			continue
		}
		got, err := cot.ReceiveAllButOne(conn, pool, h, a, digits[i])
		if err != nil {
			return nil, fmt.Errorf("spcot level %d: %w", i+1, err)
		}
		copy(sums[i], got)
	}
	cs, err := transport.RecvBlocks(conn, 1)
	if err != nil {
		return nil, err
	}
	return &ReceiverFlights{arities: arities, alpha: alpha, sums: sums, c: cs[0]}, nil
}

// Reconstruct runs the receiver's local phase: rebuild every leaf
// except alpha from the collected sums and recover v[alpha] from the
// node-recovery block. Safe to call concurrently across executions.
func (f *ReceiverFlights) Reconstruct(p prg.PRG) []block.Block {
	rec := ggm.Reconstruct(p, f.arities, f.alpha, f.sums)
	v := rec.Leaves
	v[f.alpha] = f.c.Xor(block.XorAll(rec.Leaves))
	return v
}

// Receive runs the receiver side with punctured index alpha; it returns
// v (length leaves) with v[alpha] = w[alpha] ⊕ Δ.
func Receive(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, leaves, alpha int) ([]block.Block, error) {
	flights, err := ReceiveFlights(conn, pool, h, p, leaves, alpha)
	if err != nil {
		return nil, err
	}
	return flights.Reconstruct(p), nil
}
