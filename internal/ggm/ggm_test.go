package ggm

import (
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
	if len(tr.levels[0]) != 1 || len(tr.levels[1]) != 4 || len(tr.levels[2]) != 16 {
		t.Fatal("level widths wrong")
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
		nodes := tr.levels[level]
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

func BenchmarkExpand4096(b *testing.B) {
	for _, c := range []struct {
		name string
		p    prg.PRG
	}{{"AESx2", prg.New(prg.AES, 2)}, {"ChaCha8x4", prg.New(prg.ChaCha8, 4)}} {
		p := c.p
		b.Run(c.name, func(b *testing.B) {
			arities := LevelArities(4096, p.Arity())
			b.SetBytes(4096 * 16)
			for i := 0; i < b.N; i++ {
				Expand(p, block.New(1, uint64(i)), arities)
			}
		})
	}
}

func BenchmarkReconstruct4096(b *testing.B) {
	p := prg.New(prg.ChaCha8, 4)
	arities := LevelArities(4096, 4)
	tr := Expand(p, block.New(1, 2), arities)
	sums := tr.AllLevelSums()
	b.SetBytes(4096 * 16)
	for i := 0; i < b.N; i++ {
		Reconstruct(p, arities, i%4096, sums)
	}
}
