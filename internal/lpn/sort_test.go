package lpn

import (
	"math/rand"
	"slices"
	"testing"

	"ironman/internal/block"
)

// designSort is the configuration the Ironman design point uses: both
// transforms on, a 16-row window, scored against a 256 KB cache with
// 64-byte lines.
var designSort = SortOptions{
	ColumnSwap:      true,
	LookaheadWindow: 16,
	CacheLines:      256 * 1024 / 64,
	LineWords:       4,
}

// sortedEncode is the encode a near-memory unit runs over the sorted
// layout: the input is column-swapped (rPerm[ColPerm[j]] = r[j]),
// processing step i XORs rPerm at its D indices s.idx[i·D:(i+1)·D],
// and Rowidx routes the sum, plus w, to its true output row.
func sortedEncode(c *Code, s *Sorted, r, w []block.Block) []block.Block {
	rPerm := make([]block.Block, len(r))
	for j, v := range r {
		rPerm[s.ColPerm[j]] = v
	}
	out := make([]block.Block, c.N)
	for i, row := range s.Rowidx {
		acc := w[row]
		for _, j := range s.idx[i*c.D : (i+1)*c.D] {
			acc = acc.Xor(rPerm[j])
		}
		out[row] = acc
	}
	return out
}

// TestSortedEncodePreservesOutput is the correctness half of §5.3: the
// sorted layout (column swap + row look-ahead + Rowidx routing) must
// produce bit-for-bit the same output as the natural layout.
func TestSortedEncodePreservesOutput(t *testing.T) {
	const n, k = 300, 100
	c := testCode(n, k)
	rng := rand.New(rand.NewSource(6))
	r := make([]block.Block, k)
	for i := range r {
		r[i] = block.New(rng.Uint64(), rng.Uint64())
	}
	w := make([]block.Block, n)
	for i := range w {
		w[i] = block.New(rng.Uint64(), rng.Uint64())
	}
	want := make([]block.Block, n)
	c.EncodeBlocksParallel(want, r, w, 1)

	for _, opts := range []SortOptions{
		{ColumnSwap: true},
		{ColumnSwap: false, LookaheadWindow: 8, CacheLines: 16, LineWords: 4},
		designSort,
	} {
		if got := sortedEncode(c, c.Sort(opts), r, w); !slices.Equal(got, want) {
			t.Fatalf("opts %+v: sorted encode differs from natural encode", opts)
		}
	}
}

func TestColPermIsPermutation(t *testing.T) {
	c := testCode(200, 80)
	s := c.Sort(SortOptions{ColumnSwap: true})
	seen := make([]bool, 80)
	for _, p := range s.ColPerm {
		if p >= 80 || seen[p] {
			t.Fatal("ColPerm is not a permutation")
		}
		seen[p] = true
	}
}

func TestRowidxIsPermutation(t *testing.T) {
	c := testCode(150, 60)
	s := c.Sort(designSort)
	seen := make([]bool, 150)
	for _, r := range s.Rowidx {
		if int(r) >= 150 || seen[r] {
			t.Fatal("Rowidx is not a permutation")
		}
		seen[r] = true
	}
}

func TestSortDeterministic(t *testing.T) {
	// Both protocol parties must derive the identical sorted view.
	c1 := New(block.New(9, 9), 120, 50, 6)
	c2 := New(block.New(9, 9), 120, 50, 6)
	s1 := c1.Sort(designSort)
	s2 := c2.Sort(designSort)
	for i := range s1.Rowidx {
		if s1.Rowidx[i] != s2.Rowidx[i] {
			t.Fatal("Rowidx differs between parties")
		}
	}
	for i := range s1.ColPerm {
		if s1.ColPerm[i] != s2.ColPerm[i] {
			t.Fatal("ColPerm differs between parties")
		}
	}
}

// naturalTrace is the unsorted encoder's input-access stream, in row
// order.
func naturalTrace(c *Code) func(func(uint32)) {
	return func(f func(col uint32)) {
		for _, j := range c.idx {
			f(j)
		}
	}
}

// TestColumnSwapImprovesSpatialLocality: under first-use relabeling the
// very first accesses are strictly sequential (0,1,2,...), so the mean
// distance between consecutive accesses early in the trace must shrink.
func TestColumnSwapImprovesSpatialLocality(t *testing.T) {
	c := New(block.New(3, 3), 2000, 1500, DefaultD)
	meanStride := func(trace func(func(uint32))) float64 {
		var prev uint32
		first := true
		var total, count float64
		trace(func(col uint32) {
			if !first {
				d := int64(col) - int64(prev)
				if d < 0 {
					d = -d
				}
				total += float64(d)
				count++
			}
			prev = col
			first = false
		})
		return total / count
	}
	base := meanStride(naturalTrace(c))
	s := c.Sort(SortOptions{ColumnSwap: true})
	swapped := meanStride(s.AccessTrace)
	if swapped >= base {
		t.Fatalf("column swap should reduce mean stride: base %.1f, swapped %.1f", base, swapped)
	}
}

// TestLookaheadImprovesCacheHits runs a simple LRU-line simulation over
// the trace and requires the fully sorted layout to beat the natural
// order, the behavioural claim of Figure 11.
func TestLookaheadImprovesCacheHits(t *testing.T) {
	const n, k = 4000, 3000
	c := New(block.New(8, 1), n, k, DefaultD)
	hitRate := func(trace func(func(uint32))) float64 {
		cache := newClockCache(64, (k+3)/4) // tiny cache: 64 of the vector's lines
		hits, total := 0, 0
		trace(func(col uint32) {
			line := col / 4
			if cache.contains(line) {
				hits++
			}
			cache.touch(line)
			total++
		})
		return float64(hits) / float64(total)
	}
	base := hitRate(naturalTrace(c))
	sorted := c.Sort(SortOptions{ColumnSwap: true, LookaheadWindow: 32, CacheLines: 64, LineWords: 4})
	opt := hitRate(sorted.AccessTrace)
	if opt <= base {
		t.Fatalf("sorting should raise hit rate: base %.3f, sorted %.3f", base, opt)
	}
}

func TestNoSortIsIdentity(t *testing.T) {
	c := testCode(40, 30)
	s := c.Sort(SortOptions{})
	for i, p := range s.ColPerm {
		if p != uint32(i) {
			t.Fatal("ColPerm should be identity when swapping disabled")
		}
	}
	for i, r := range s.Rowidx {
		if r != uint32(i) {
			t.Fatal("Rowidx should be identity when look-ahead disabled")
		}
	}
}

func BenchmarkSort(b *testing.B) {
	c := New(block.New(1, 1), 1<<14, 1<<12, DefaultD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sort(designSort)
	}
}
