// Package ggm implements Goldreich-Goldwasser-Micali puncturable
// pseudorandom trees, the core data structure of SPCOT (§2.3.1 of the
// Ironman paper), generalized to the hardware-aware m-ary expansion of
// §4.1.
//
// A tree with ℓ leaves is expanded level by level from a secret root
// seed. The sender computes the whole tree. The receiver, holding an
// index α it wants punctured, obtains for every level the XOR sums of
// all nodes in each child position except the position on the path to
// α; from those sums it reconstructs every leaf except leaf α.
//
// Levels may have different arities (mixed radix): ℓ = 8192 under a
// 4-ary PRG uses six 4-ary levels and one final binary level. The COT
// budget of the puncturing protocol is Σ log2(arity_i) = log2(ℓ)
// regardless of m, which is why m-ary expansion is free in correlations.
package ggm

import (
	"math/bits"

	"ironman/internal/block"
	"ironman/internal/prg"
)

// LevelArities decomposes a leaf count into per-level arities for a
// maximum arity m. Both leaves and m must be powers of two, leaves >= 2,
// m >= 2. All levels use arity m except possibly the last, which uses
// the remaining power of two.
func LevelArities(leaves, m int) []int {
	if leaves < 2 || bits.OnesCount(uint(leaves)) != 1 {
		panic("ggm: leaves must be a power of two >= 2")
	}
	if m < 2 || bits.OnesCount(uint(m)) != 1 {
		panic("ggm: arity must be a power of two >= 2")
	}
	logL := bits.TrailingZeros(uint(leaves))
	logM := bits.TrailingZeros(uint(m))
	var arities []int
	for logL > 0 {
		if logL >= logM {
			arities = append(arities, m)
			logL -= logM
		} else {
			arities = append(arities, 1<<uint(logL))
			logL = 0
		}
	}
	return arities
}

// Digits returns the mixed-radix digits of alpha for the given per-level
// arities, most significant (root level) first. alpha must lie in
// [0, Π arities).
func Digits(alpha int, arities []int) []int {
	total := 1
	for _, a := range arities {
		total *= a
	}
	if alpha < 0 || alpha >= total {
		panic("ggm: alpha out of range")
	}
	digits := make([]int, len(arities))
	for i := len(arities) - 1; i >= 0; i-- {
		digits[i] = alpha % arities[i]
		alpha /= arities[i]
	}
	return digits
}

// Tree is a fully expanded GGM tree held by the sender.
type Tree struct {
	arities []int
	// levels[0] is the root (1 node); levels[i] has Π_{j<i} arities[j]
	// * arities[i-1]... i.e. levels[i] holds the nodes at depth i.
	levels [][]block.Block
}

// Expand computes the full tree from seed with the given per-level
// arities. Every arity must be <= p.Arity().
func Expand(p prg.PRG, seed block.Block, arities []int) *Tree {
	t := &Tree{arities: arities}
	t.levels = make([][]block.Block, len(arities)+1)
	t.levels[0] = []block.Block{seed}
	width := 1
	for i, a := range arities {
		if a > p.Arity() {
			panic("ggm: level arity exceeds PRG arity")
		}
		width *= a
		next := make([]block.Block, width)
		parents := t.levels[i]
		for j, parent := range parents {
			p.Expand(parent, next[j*a:(j+1)*a])
		}
		t.levels[i+1] = next
	}
	return t
}

// Depth returns the number of expansion levels.
func (t *Tree) Depth() int { return len(t.arities) }

// Leaves returns the final level of the tree. The slice is shared with
// the tree; callers must not modify it.
func (t *Tree) Leaves() []block.Block { return t.levels[len(t.levels)-1] }

// LevelSums computes the position-wise XOR sums of level i (1-based:
// the children produced by expansion level i-1). sums[c] is the XOR of
// every node at depth i whose child-position within its parent is c.
// For a binary level these are the "even" and "odd" sums K^i_0, K^i_1
// of §2.3.1.
func (t *Tree) LevelSums(level int) []block.Block {
	if level < 1 || level > t.Depth() {
		panic("ggm: level out of range")
	}
	a := t.arities[level-1]
	nodes := t.levels[level]
	sums := make([]block.Block, a)
	for j, n := range nodes {
		c := j % a
		sums[c] = sums[c].Xor(n)
	}
	return sums
}

// AllLevelSums returns LevelSums for every level 1..Depth.
func (t *Tree) AllLevelSums() [][]block.Block {
	out := make([][]block.Block, t.Depth())
	for i := 1; i <= t.Depth(); i++ {
		out[i-1] = t.LevelSums(i)
	}
	return out
}

// OpsForTree computes the primitive op count of expanding a tree with
// the given number of leaves using p, without expanding it — the
// quantity Figures 6 and 7(a) count.
func OpsForTree(p prg.PRG, leaves int) int {
	ops := 0
	width := 1
	for _, a := range LevelArities(leaves, p.Arity()) {
		ops += width * p.OpsFor(a)
		width *= a
	}
	return ops
}

// Punctured is the receiver's view of a GGM tree: every leaf except the
// one at index Alpha, whose slot holds the zero block.
type Punctured struct {
	Alpha  int
	Leaves []block.Block
}

// Reconstruct rebuilds all leaves except leaf alpha. sums must contain,
// for every level i (0-based here), the arity_i position sums of that
// level; the entry at the path digit position is never read and may be
// anything (the puncturing protocol does not transfer it). This is the
// receiver computation of steps ③ in Figure 3(b).
func Reconstruct(p prg.PRG, arities []int, alpha int, sums [][]block.Block) *Punctured {
	if len(sums) != len(arities) {
		panic("ggm: sums/arities length mismatch")
	}
	digits := Digits(alpha, arities)

	// known holds the current level's nodes; hole is the index of the
	// punctured node (unknown, kept zero).
	known := []block.Block{{}}
	hole := 0
	for i, a := range arities {
		width := len(known) * a
		next := make([]block.Block, width)
		// Expand every known parent.
		for j := range known {
			if j == hole {
				continue
			}
			p.Expand(known[j], next[j*a:(j+1)*a])
		}
		// Recover the hole's children at every position except the next
		// path digit: missing = sums[i][c] ⊕ XOR of known children at
		// position c.
		d := digits[i]
		for c := 0; c < a; c++ {
			if c == d {
				continue
			}
			acc := sums[i][c]
			for j := 0; j < len(known); j++ {
				if j == hole {
					continue
				}
				acc = acc.Xor(next[j*a+c])
			}
			next[hole*a+c] = acc
		}
		hole = hole*a + d
		known = next
	}
	return &Punctured{Alpha: hole, Leaves: known}
}
