package ggm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ironman/internal/block"
	"ironman/internal/prg"
)

func TestLevelArities(t *testing.T) {
	cases := []struct {
		leaves, m int
		want      []int
	}{
		{4096, 2, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
		{4096, 4, []int{4, 4, 4, 4, 4, 4}},
		{8192, 4, []int{4, 4, 4, 4, 4, 4, 2}},
		{8192, 2, repeat(2, 13)},
		{4096, 8, []int{8, 8, 8, 8}},
		{4096, 32, []int{32, 32, 4}},
		{2, 4, []int{2}},
	}
	for _, c := range cases {
		got := LevelArities(c.leaves, c.m)
		if !equalInts(got, c.want) {
			t.Errorf("LevelArities(%d,%d) = %v, want %v", c.leaves, c.m, got, c.want)
		}
		prod := 1
		for _, a := range got {
			prod *= a
		}
		if prod != c.leaves {
			t.Errorf("LevelArities(%d,%d) product = %d", c.leaves, c.m, prod)
		}
	}
}

func TestLevelAritiesPanics(t *testing.T) {
	for _, f := range []func(){
		func() { LevelArities(3, 2) },
		func() { LevelArities(0, 2) },
		func() { LevelArities(8, 3) },
		func() { LevelArities(8, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	arities := []int{4, 4, 2}
	for alpha := 0; alpha < 32; alpha++ {
		d := Digits(alpha, arities)
		back := 0
		for i, a := range arities {
			back = back*a + d[i]
		}
		if back != alpha {
			t.Fatalf("Digits(%d) = %v does not round-trip (got %d)", alpha, d, back)
		}
	}
}

func TestExpandShapeAndDeterminism(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	arities := []int{4, 4, 2}
	seed := block.New(1, 2)
	tr := Expand(p, seed, arities)
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	if len(tr.Leaves()) != 32 {
		t.Fatalf("leaves = %d, want 32", len(tr.Leaves()))
	}
	for i, want := range arities {
		if got := len(tr.LevelSums(i + 1)); got != want {
			t.Fatalf("level %d has %d position sums, want %d", i+1, got, want)
		}
	}
	tr2 := Expand(p, seed, arities)
	if !slices.Equal(tr.Leaves(), tr2.Leaves()) {
		t.Fatal("expansion not deterministic")
	}
}

func TestLevelSumsDefinition(t *testing.T) {
	p := prg.New(prg.AES, 2)
	tr := Expand(p, block.New(3, 4), []int{2, 2, 2})
	for level := 1; level <= 3; level++ {
		sums := tr.LevelSums(level)
		nodes := referenceLevels(p, block.New(3, 4), []int{2, 2, 2})[level]
		var even, odd block.Block
		for j, n := range nodes {
			if j%2 == 0 {
				even = even.Xor(n)
			} else {
				odd = odd.Xor(n)
			}
		}
		if sums[0] != even || sums[1] != odd {
			t.Fatalf("level %d sums mismatch", level)
		}
	}
}

// TestReconstructAllAlphas is the central GGM correctness property: for
// every punctured index, the receiver reconstructs exactly the sender's
// leaves everywhere except at alpha.
func TestReconstructAllAlphas(t *testing.T) {
	configs := []struct {
		p       prg.PRG
		arities []int
	}{
		{prg.New(prg.AES, 2), []int{2, 2, 2, 2}},
		{prg.New(prg.ChaCha8, 4), []int{4, 4}},
		{prg.New(prg.ChaCha8, 4), []int{4, 4, 2}},
		{prg.New(prg.AES, 4), []int{4, 2}},
		{prg.New(prg.ChaCha8, 8), []int{8, 4}},
	}
	for _, cfg := range configs {
		leaves := 1
		for _, a := range cfg.arities {
			leaves *= a
		}
		tr := Expand(cfg.p, block.New(7, 8), cfg.arities)
		sums := tr.AllLevelSums()
		for alpha := 0; alpha < leaves; alpha++ {
			rec := Reconstruct(cfg.p, cfg.arities, alpha, sums)
			if rec.Alpha != alpha {
				t.Fatalf("%v %v: Alpha = %d, want %d", cfg.p, cfg.arities, rec.Alpha, alpha)
			}
			for i := range rec.Leaves {
				if i == alpha {
					if rec.Leaves[i] != (block.Block{}) {
						t.Fatalf("punctured slot %d not zero", i)
					}
					continue
				}
				if rec.Leaves[i] != tr.Leaves()[i] {
					t.Fatalf("%v %v alpha=%d: leaf %d mismatch", cfg.p, cfg.arities, alpha, i)
				}
			}
		}
	}
}

// TestReconstructDoesNotNeedPathSums verifies the security-relevant
// structural property: the sums at the path-digit positions are never
// read, so a malicious-sum there cannot change the reconstruction.
func TestReconstructDoesNotNeedPathSums(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	arities := []int{4, 4}
	tr := Expand(p, block.New(9, 10), arities)
	alpha := 7
	digits := Digits(alpha, arities)
	sums := tr.AllLevelSums()
	// Corrupt the path-digit entries.
	for i := range sums {
		sums[i][digits[i]] = block.New(0xdead, 0xbeef)
	}
	rec := Reconstruct(p, arities, alpha, sums)
	for i, leaf := range rec.Leaves {
		if i == alpha {
			continue
		}
		if leaf != tr.Leaves()[i] {
			t.Fatal("corrupting unused sums changed the reconstruction")
		}
	}
}

// TestXorKnownLeaves: the punctured slot is zero, so the XOR of the
// reconstructed leaves is the XOR of every known leaf — what SPCOT's
// node-recovery step XORs with the sender's correction.
func TestXorKnownLeaves(t *testing.T) {
	p := prg.New(prg.AES, 2)
	arities := []int{2, 2, 2}
	tr := Expand(p, block.New(11, 12), arities)
	alpha := 5
	rec := Reconstruct(p, arities, alpha, tr.AllLevelSums())
	want := block.XorAll(tr.Leaves()).Xor(tr.Leaves()[alpha])
	if block.XorAll(rec.Leaves) != want {
		t.Fatal("XOR of the reconstructed leaves mismatch")
	}
}

func TestOpsMatchesFigure6(t *testing.T) {
	cases := []struct {
		p      prg.PRG
		leaves int
		want   int
	}{
		{prg.New(prg.AES, 2), 4, 6},     // Fig 6(a)
		{prg.New(prg.AES, 4), 4, 4},     // Fig 6(b)
		{prg.New(prg.ChaCha8, 2), 4, 3}, // Fig 6(c)
		{prg.New(prg.ChaCha8, 4), 4, 1}, // Fig 6(d)
	}
	for _, c := range cases {
		if got := OpsForTree(c.p, c.leaves); got != c.want {
			t.Errorf("%v: OpsForTree(%d) = %d, want %d", c.p, c.leaves, got, c.want)
		}
	}
}

// TestFigure7ReductionRates reproduces §4.1: with ChaCha PRGs and
// ℓ=4096, 4-ary expansion cuts ops ~2.99x vs 2-ary, 32-ary only ~3.86x.
func TestFigure7ReductionRates(t *testing.T) {
	l := 4096
	base := float64(OpsForTree(prg.New(prg.ChaCha8, 2), l))
	r4 := base / float64(OpsForTree(prg.New(prg.ChaCha8, 4), l))
	// The asymptotic 32-ary rate needs an exact power of 32 (otherwise
	// the mixed-radix tail level inflates the op count).
	l32 := 32768
	r32 := float64(OpsForTree(prg.New(prg.ChaCha8, 2), l32)) /
		float64(OpsForTree(prg.New(prg.ChaCha8, 32), l32))
	if r4 < 2.9 || r4 > 3.1 {
		t.Errorf("4-ary reduction = %.2f, want ~3.0", r4)
	}
	if r32 < 3.7 || r32 > 4.0 {
		t.Errorf("32-ary reduction = %.2f, want ~3.86", r32)
	}
}

func TestReconstructProperty(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	arities := []int{4, 4, 4}
	f := func(seedLo, seedHi uint64, alphaRaw uint16) bool {
		alpha := int(alphaRaw) % 64
		tr := Expand(p, block.New(seedLo, seedHi), arities)
		rec := Reconstruct(p, arities, alpha, tr.AllLevelSums())
		for i := range rec.Leaves {
			if i == alpha {
				continue
			}
			if rec.Leaves[i] != tr.Leaves()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedLargeTree(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	arities := LevelArities(4096, 4)
	rng := rand.New(rand.NewSource(42))
	tr := Expand(p, block.New(rng.Uint64(), rng.Uint64()), arities)
	sums := tr.AllLevelSums()
	for trial := 0; trial < 16; trial++ {
		alpha := rng.Intn(4096)
		rec := Reconstruct(p, arities, alpha, sums)
		if rec.Leaves[alpha] != (block.Block{}) {
			t.Fatal("hole not zero")
		}
		// Spot-check a few positions plus the full XOR.
		for _, i := range []int{0, 1, alpha ^ 1, 4095} {
			if i == alpha {
				continue
			}
			if rec.Leaves[i] != tr.Leaves()[i] {
				t.Fatalf("alpha=%d: leaf %d mismatch", alpha, i)
			}
		}
	}
}

// referenceLevels is the textbook level-by-level expansion, one fresh
// slice per level: levels[i] holds the nodes at depth i.
func referenceLevels(p prg.PRG, seed block.Block, arities []int) [][]block.Block {
	levels := [][]block.Block{{seed}}
	for _, a := range arities {
		parents := levels[len(levels)-1]
		next := make([]block.Block, len(parents)*a)
		for j, parent := range parents {
			p.Expand(parent, next[j*a:(j+1)*a])
		}
		levels = append(levels, next)
	}
	return levels
}

// holeAlphas returns punctured indices whose hole sits, on every level
// of at least eight parents, at each position mod 8 (the lane kernel's
// group boundary), plus the two ends, where the hole is 0 or width−1 on
// every level.
func holeAlphas(arities []int) []int {
	leaves := 1
	for _, a := range arities {
		leaves *= a
	}
	alphas := []int{0, leaves - 1}
	width := 1
	for _, a := range arities {
		below := leaves / width
		if width >= 8 {
			for r := 0; r < 8; r++ {
				hole := width/16*8 + r
				alphas = append(alphas, hole*below+r*7919%below)
			}
		}
		width *= a
	}
	return alphas
}

// TestInPlaceKernelsMatchReference: ExpandInto and ReconstructInto,
// which build every level inside the leaf buffer, produce the same
// leaves and level sums as the level-by-level reference expansion, for
// binary, 4-ary and mixed-radix trees, with the hole at either end and
// at every position mod 8 of each level.
func TestInPlaceKernelsMatchReference(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       prg.PRG
		arities []int
	}{
		{"binary", prg.New(prg.AES, 2), LevelArities(1024, 2)},
		{"binary-chacha", prg.New(prg.ChaCha8, 2), LevelArities(4096, 2)},
		{"4-ary", prg.New(prg.ChaCha8, 4), LevelArities(4096, 4)},
		{"mixed", prg.New(prg.ChaCha8, 4), LevelArities(8192, 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			seed := block.New(0x1ace, uint64(len(c.arities)))
			levels := referenceLevels(c.p, seed, c.arities)
			ref := levels[len(levels)-1]
			want := make([][]block.Block, len(c.arities))
			for i, a := range c.arities {
				want[i] = make([]block.Block, a)
				for j, n := range levels[i+1] {
					want[i][j%a] = want[i][j%a].Xor(n)
				}
			}
			leaves := make([]block.Block, len(ref))
			sums := make([][]block.Block, len(c.arities))
			for i, a := range c.arities {
				sums[i] = make([]block.Block, a)
			}
			ExpandInto(c.p, seed, c.arities, leaves, sums)
			if !slices.Equal(leaves, ref) {
				t.Fatal("ExpandInto leaves differ from the reference")
			}
			for i := range want {
				if !slices.Equal(sums[i], want[i]) {
					t.Fatalf("ExpandInto level %d sums differ", i+1)
				}
			}
			for _, alpha := range holeAlphas(c.arities) {
				got := make([]block.Block, len(leaves))
				for i := range got {
					got[i] = block.New(0xdead, uint64(i)) // stale contents
				}
				xor := ReconstructInto(c.p, c.arities, alpha, want, got)
				if got[alpha] != (block.Block{}) {
					t.Fatalf("alpha=%d: hole not zero", alpha)
				}
				wantLeaves := slices.Clone(ref)
				wantLeaves[alpha] = block.Block{}
				if !slices.Equal(got, wantLeaves) {
					t.Fatalf("alpha=%d: ReconstructInto leaves differ from the reference", alpha)
				}
				if xor != block.XorAll(wantLeaves) {
					t.Fatalf("alpha=%d: returned XOR is not the XOR of the known leaves", alpha)
				}
			}
		})
	}
}

func repeat(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benchTree holds one preallocated tree of the given shape, so the GGM
// benchmarks time the in-place kernels alone.
type benchTree struct {
	p       prg.PRG
	arities []int
	leaves  []block.Block
	sums    [][]block.Block
}

func newBenchTree(p prg.PRG, leaves int) *benchTree {
	arities := LevelArities(leaves, p.Arity())
	bt := &benchTree{p: p, arities: arities, leaves: make([]block.Block, leaves), sums: make([][]block.Block, len(arities))}
	for i, a := range arities {
		bt.sums[i] = make([]block.Block, a)
	}
	return bt
}

func reportPerLeaf(b *testing.B, leaves int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves), "ns/leaf")
}

func BenchmarkExpand(b *testing.B) {
	for _, c := range []struct {
		name   string
		p      prg.PRG
		leaves int
	}{
		{"AESx2", prg.New(prg.AES, 2), 4096},
		{"ChaCha8x4", prg.New(prg.ChaCha8, 4), 4096},
		{"ChaCha8x4", prg.New(prg.ChaCha8, 4), 8192},
	} {
		b.Run(fmt.Sprintf("%s/%d", c.name, c.leaves), func(b *testing.B) {
			bt := newBenchTree(c.p, c.leaves)
			b.SetBytes(int64(c.leaves * block.Size))
			i := uint64(0)
			for b.Loop() {
				i++
				ExpandInto(bt.p, block.New(1, i), bt.arities, bt.leaves, bt.sums)
			}
			reportPerLeaf(b, c.leaves)
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	for _, leaves := range []int{4096, 8192} {
		b.Run(fmt.Sprintf("ChaCha8x4/%d", leaves), func(b *testing.B) {
			bt := newBenchTree(prg.New(prg.ChaCha8, 4), leaves)
			ExpandInto(bt.p, block.New(1, 2), bt.arities, bt.leaves, bt.sums)
			b.SetBytes(int64(leaves * block.Size))
			alpha := 0
			for b.Loop() {
				alpha = (alpha + 7919) % leaves
				ReconstructInto(bt.p, bt.arities, alpha, bt.sums, bt.leaves)
			}
			reportPerLeaf(b, leaves)
		})
	}
}
