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
	"slices"

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

// Tree is a fully expanded GGM tree held by the sender: its leaves and
// every level's position sums.
type Tree struct {
	leaves []block.Block
	sums   [][]block.Block
}

// Expand computes the full tree from seed with the given per-level
// arities into fresh storage; see ExpandInto. Every arity must be
// <= p.Arity().
func Expand(p prg.PRG, seed block.Block, arities []int) *Tree {
	total := 1
	t := &Tree{sums: make([][]block.Block, len(arities))}
	for i, a := range arities {
		t.sums[i] = make([]block.Block, a)
		total *= a
	}
	t.leaves = make([]block.Block, total)
	ExpandInto(p, seed, arities, t.leaves, t.sums)
	return t
}

// Depth returns the number of expansion levels.
func (t *Tree) Depth() int { return len(t.sums) }

// Leaves returns the final level of the tree. The slice is shared with
// the tree; callers must not modify it.
func (t *Tree) Leaves() []block.Block { return t.leaves }

// LevelSums returns a copy of the position-wise XOR sums of level i
// (1-based: the children produced by expansion level i-1). sums[c] is
// the XOR of every node at depth i whose child-position within its
// parent is c. For a binary level these are the "even" and "odd" sums
// K^i_0, K^i_1 of §2.3.1.
func (t *Tree) LevelSums(level int) []block.Block {
	if level < 1 || level > t.Depth() {
		panic("ggm: level out of range")
	}
	return slices.Clone(t.sums[level-1])
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

// maxArity bounds the per-level arity of the in-place kernels (the
// widest PRG, ChaCha8, expands 32 children per parent).
const maxArity = 32

// ExpandInto expands the tree from seed straight into leaves (len
// Π arities) and writes every level's position sums into sums (sums[i]
// holds arities[i] entries, as LevelSums(i+1) returns them). Every
// level lives in the prefix of leaves: parents are expanded in
// descending index order, so parent j's children at [j·a, (j+1)·a)
// only overwrite parents already expanded, and the sums are
// accumulated in the same pass (prg.PRG.ExpandLevel).
func ExpandInto(p prg.PRG, seed block.Block, arities []int, leaves []block.Block, sums [][]block.Block) {
	checkInto(p, arities, leaves, sums)
	leaves[0] = seed
	width := 1
	for i, a := range arities {
		clear(sums[i])
		p.ExpandLevel(leaves, 0, width, a, sums[i])
		width *= a
	}
}

// checkInto panics unless leaves and sums fit the tree shape.
func checkInto(p prg.PRG, arities []int, leaves []block.Block, sums [][]block.Block) {
	if len(sums) != len(arities) {
		panic("ggm: sums/arities length mismatch")
	}
	total := 1
	for i, a := range arities {
		if a > p.Arity() {
			panic("ggm: level arity exceeds PRG arity")
		}
		if len(sums[i]) != a {
			panic("ggm: level sums have the wrong arity")
		}
		total *= a
	}
	if len(leaves) != total {
		panic("ggm: leaf buffer does not match the tree size")
	}
}

// Punctured is the receiver's view of a GGM tree: every leaf except the
// one at index Alpha, whose slot holds the zero block.
type Punctured struct {
	Alpha  int
	Leaves []block.Block
}

// Reconstruct rebuilds all leaves except leaf alpha into a fresh
// slice; see ReconstructInto.
func Reconstruct(p prg.PRG, arities []int, alpha int, sums [][]block.Block) *Punctured {
	total := 1
	for _, a := range arities {
		total *= a
	}
	leaves := make([]block.Block, total)
	ReconstructInto(p, arities, alpha, sums, leaves)
	return &Punctured{Alpha: alpha, Leaves: leaves}
}

// ReconstructInto rebuilds every leaf except leaf alpha straight into
// leaves (len Π arities), with leaves[alpha] zero, and returns the XOR
// of the rebuilt leaves. sums must contain, for every level i (0-based
// here), the arity_i position sums of that level; the entry at the path
// digit position is never read and may be anything (the puncturing
// protocol does not transfer it). This is the receiver computation of
// step ③ in Figure 3(b).
//
// Levels share leaves' storage as in ExpandInto. The hole — the
// punctured node on the path to alpha — is skipped: each level expands
// the parents above it, then those below it. Its children off
// the path are recovered after the level's pass as sums[i][c] ⊕ (XOR
// of the known children at position c), and the child on the path is
// the next level's hole, kept zero.
func ReconstructInto(p prg.PRG, arities []int, alpha int, sums [][]block.Block, leaves []block.Block) block.Block {
	checkInto(p, arities, leaves, sums)
	if alpha < 0 || alpha >= len(leaves) {
		panic("ggm: alpha out of range")
	}
	leaves[0] = block.Block{}
	hole, width, below, d := 0, 1, len(leaves), 0
	var known [maxArity]block.Block // XOR of the known children per position
	for i, a := range arities {
		below /= a
		d = alpha / below % a
		clear(known[:a])
		p.ExpandLevel(leaves, hole+1, width, a, known[:a])
		p.ExpandLevel(leaves, 0, hole, a, known[:a])
		kids := leaves[hole*a : (hole+1)*a]
		for c := range kids {
			if c == d {
				kids[c] = block.Block{}
				continue
			}
			kids[c] = sums[i][c].Xor(known[c])
		}
		hole = hole*a + d
		width *= a
	}
	// Every leaf but alpha: the full sums off the path, and the known
	// leaves at alpha's position.
	last := sums[len(sums)-1]
	xor := known[d]
	for c := range last {
		if c != d {
			xor = xor.Xor(last[c])
		}
	}
	return xor
}
