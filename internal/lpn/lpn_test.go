package lpn

import (
	"fmt"
	"math/rand"
	"testing"

	"ironman/internal/block"
)

func testCode(n, k int) *Code { return New(block.New(1, 2), n, k, DefaultD) }

func TestNewCodeRegular(t *testing.T) {
	c := testCode(500, 200)
	if len(c.idx) != 500*DefaultD {
		t.Fatal("index storage wrong size")
	}
	for i := 0; i < c.N; i++ {
		row := c.idx[i*c.D : (i+1)*c.D]
		seen := make(map[uint32]bool, len(row))
		for _, j := range row {
			if j >= uint32(c.K) {
				t.Fatalf("row %d index %d out of range", i, j)
			}
			if seen[j] {
				t.Fatalf("row %d has duplicate index %d", i, j)
			}
			seen[j] = true
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a := New(block.New(5, 6), 100, 50, 4)
	b := New(block.New(5, 6), 100, 50, 4)
	for i := range a.idx {
		if a.idx[i] != b.idx[i] {
			t.Fatal("same seed must give same code")
		}
	}
	c := New(block.New(5, 7), 100, 50, 4)
	same := true
	for i := range a.idx {
		if a.idx[i] != c.idx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different codes")
	}
}

// TestEncodeLinearity: encoding is linear over GF(2)^128, so
// E(r1 ⊕ r2, w1 ⊕ w2) = E(r1, w1) ⊕ E(r2, w2).
func TestEncodeLinearity(t *testing.T) {
	c := testCode(64, 32)
	rng := rand.New(rand.NewSource(4))
	randBlocks := func(n int) []block.Block {
		s := make([]block.Block, n)
		for i := range s {
			s[i] = block.New(rng.Uint64(), rng.Uint64())
		}
		return s
	}
	r1, r2 := randBlocks(32), randBlocks(32)
	w1, w2 := randBlocks(64), randBlocks(64)
	out1 := make([]block.Block, 64)
	out2 := make([]block.Block, 64)
	c.EncodeBlocksParallel(out1, r1, w1, 1)
	c.EncodeBlocksParallel(out2, r2, w2, 1)

	r12 := make([]block.Block, 32)
	w12 := make([]block.Block, 64)
	for i := range r12 {
		r12[i] = r1[i].Xor(r2[i])
	}
	for i := range w12 {
		w12[i] = w1[i].Xor(w2[i])
	}
	out12 := make([]block.Block, 64)
	c.EncodeBlocksParallel(out12, r12, w12, 1)
	for i := range out12 {
		if out12[i] != out1[i].Xor(out2[i]) {
			t.Fatalf("linearity broken at %d", i)
		}
	}
}

// TestCOTPreservation is the protocol-level property §2.3.2 relies on:
// if the inputs are correlated (r = s ⊕ e·Δ element-wise, w = v ⊕ u·Δ)
// then the outputs satisfy z = y ⊕ x·Δ.
func TestCOTPreservation(t *testing.T) {
	const n, k = 128, 48
	c := testCode(n, k)
	rng := rand.New(rand.NewSource(5))
	delta := block.New(rng.Uint64(), rng.Uint64())

	s := make([]block.Block, k)
	e := make([]bool, k)
	r := make([]block.Block, k)
	for i := range s {
		s[i] = block.New(rng.Uint64(), rng.Uint64())
		e[i] = rng.Intn(2) == 1
		r[i] = s[i]
		if e[i] {
			r[i] = r[i].Xor(delta)
		}
	}
	points := []int{3, 77, 101}
	v := make([]block.Block, n)
	w := make([]block.Block, n)
	isPoint := make(map[int]bool)
	for _, p := range points {
		isPoint[p] = true
	}
	for i := range v {
		v[i] = block.New(rng.Uint64(), rng.Uint64())
		w[i] = v[i]
		if isPoint[i] {
			w[i] = w[i].Xor(delta)
		}
	}

	z := make([]block.Block, n)
	y := make([]block.Block, n)
	x := make([]bool, n)
	c.EncodeBlocksParallel(z, r, w, 1)
	c.EncodeBlocksParallel(y, s, v, 1)
	if err := c.EncodeBitsParallel(x, e, points, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := y[i]
		if x[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("output correlation broken at %d", i)
		}
	}
}

func TestEncodeBitsSparsePoints(t *testing.T) {
	c := testCode(32, 16)
	e := make([]bool, 16) // all zero
	out := make([]bool, 32)
	if err := c.EncodeBitsParallel(out, e, []int{5, 31}, 1); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		want := i == 5 || i == 31
		if b != want {
			t.Fatalf("bit %d = %v, want %v", i, b, want)
		}
	}
}

// TestEncodeBitsRejectsBadPoints: out-of-range noise positions used to
// be dropped silently (and negative ones crashed with an index panic),
// producing a wrong correlation with no signal. They must fail loudly.
func TestEncodeBitsRejectsBadPoints(t *testing.T) {
	c := testCode(32, 16)
	e := make([]bool, 16)
	out := make([]bool, 32)
	for _, points := range [][]int{{40}, {32}, {-1}, {5, 31, 32}} {
		if err := c.EncodeBitsParallel(out, e, points, 1); err == nil {
			t.Fatalf("points %v: expected error", points)
		}
	}
	// A failed call must not have flipped any valid point it validated.
	if err := c.EncodeBitsParallel(out, e, nil, 1); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b {
			t.Fatalf("bit %d set after rejected encode", i)
		}
	}
}

// TestEncodeParallelDeterminism: sharded encodes must be bit-identical
// to one worker's for every worker count, including counts that
// exceed the row count.
func TestEncodeParallelDeterminism(t *testing.T) {
	const n, k = 257, 64 // odd n exercises uneven shard boundaries
	c := testCode(n, k)
	rng := rand.New(rand.NewSource(9))
	r := make([]block.Block, k)
	e := make([]bool, k)
	for i := range r {
		r[i] = block.New(rng.Uint64(), rng.Uint64())
		e[i] = rng.Intn(2) == 1
	}
	w := make([]block.Block, n)
	for i := range w {
		w[i] = block.New(rng.Uint64(), rng.Uint64())
	}
	points := []int{0, 100, n - 1}

	wantB := make([]block.Block, n)
	c.EncodeBlocksParallel(wantB, r, w, 1)
	wantX := make([]bool, n)
	if err := c.EncodeBitsParallel(wantX, e, points, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, n + 5} {
		gotB := make([]block.Block, n)
		c.EncodeBlocksParallel(gotB, r, w, workers)
		gotX := make([]bool, n)
		if err := c.EncodeBitsParallel(gotX, e, points, workers); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if gotB[i] != wantB[i] || gotX[i] != wantX[i] {
				t.Fatalf("workers=%d: row %d differs from one worker", workers, i)
			}
		}
	}
}

// TestAccessTraceLength: the sorted view's access stream (what the
// Rank-NMP model replays) touches every row's D indices, all in range.
func TestAccessTraceLength(t *testing.T) {
	c := testCode(100, 40)
	count := 0
	c.Sort(DefaultSort()).AccessTrace(func(col uint32) {
		if col >= 40 {
			t.Fatalf("trace column %d out of range", col)
		}
		count++
	})
	if count != 100*DefaultD {
		t.Fatalf("trace length = %d, want %d", count, 100*DefaultD)
	}
}

func TestPanicsOnBadDims(t *testing.T) {
	for _, f := range []func(){
		func() { New(block.Block{}, 0, 10, 4) },
		func() { New(block.Block{}, 10, 3, 4) },
		func() { testCode(10, 40).EncodeBlocksParallel(make([]block.Block, 9), make([]block.Block, 40), nil, 1) },
		func() { testCode(10, 40).EncodeBitsParallel(make([]bool, 10), make([]bool, 39), nil, 1) },
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

func BenchmarkEncodeBlocks(b *testing.B) {
	const n, k = 1 << 16, 1 << 14
	c := testCode(n, k)
	r := make([]block.Block, k)
	out := make([]block.Block, n)
	b.SetBytes(int64(n * DefaultD * block.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeBlocksParallel(out, r, nil, 1)
	}
}

func BenchmarkEncodeBlocksParallel(b *testing.B) {
	const n, k = 1 << 18, 1 << 15
	c := testCode(n, k)
	r := make([]block.Block, k)
	out := make([]block.Block, n)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n * DefaultD * block.Size))
			for i := 0; i < b.N; i++ {
				c.EncodeBlocksParallel(out, r, nil, workers)
			}
		})
	}
}
