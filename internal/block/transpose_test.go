package block

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// transposeNaive is the bit-by-bit reference TransposeBits replaced:
// one pass over the rows per column.
func transposeNaive(cols [][]byte, m int) []Block {
	rows := make([]Block, m)
	for c, col := range cols {
		for t := 0; t < m; t++ {
			if col[t>>3]>>(uint(t)&7)&1 == 1 {
				if c < 64 {
					rows[t].Lo |= 1 << uint(c)
				} else {
					rows[t].Hi |= 1 << uint(c-64)
				}
			}
		}
	}
	return rows
}

func randomCols(rng *rand.Rand, m int) [][]byte {
	cols := make([][]byte, transposeWidth)
	for c := range cols {
		cols[c] = make([]byte, (m+7)/8)
		rng.Read(cols[c])
	}
	return cols
}

func TestTransposeBitsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 63, 64, 65, 1000, 1<<16 + 8} {
		cols := randomCols(rng, m)
		want := transposeNaive(cols, m)
		got := make([]Block, m)
		TransposeBits(got, cols, 0, m)
		if !slices.Equal(got, want) {
			t.Fatalf("m=%d: blocked transpose differs from the naive reference", m)
		}
	}
}

func TestTransposeBitsUnalignedShards(t *testing.T) {
	const m = 1000
	rng := rand.New(rand.NewSource(2))
	cols := randomCols(rng, m)
	want := transposeNaive(cols, m)
	// Shards that start and end inside tiles, inside bytes, and that
	// are shorter than one tile; rows outside [lo, hi) stay untouched.
	for _, cuts := range [][]int{{0, 1000}, {0, 1, 64, 1000}, {0, 63, 65, 129, 1000}, {0, 333, 667, 1000}, {0, 7, 8, 9, 500, 999, 1000}} {
		got := make([]Block, m)
		for i := 0; i+1 < len(cuts); i++ {
			TransposeBits(got, cols, cuts[i], cuts[i+1])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shard cuts %v: result differs from the naive reference", cuts)
		}
	}
	sentinel := New(^uint64(0), 0x5a5a)
	got := make([]Block, m)
	for i := range got {
		got[i] = sentinel
	}
	TransposeBits(got, cols, 70, 130)
	for i := range got {
		switch inside := i >= 70 && i < 130; {
		case inside && got[i] != want[i]:
			t.Fatalf("row %d inside [70,130) is wrong", i)
		case !inside && got[i] != sentinel:
			t.Fatalf("row %d outside [70,130) was overwritten", i)
		}
	}
}

func TestTransposeBitsWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a column count other than 128")
		}
	}()
	TransposeBits(make([]Block, 8), make([][]byte, 64), 0, 8)
}

func BenchmarkTransposeBits(b *testing.B) {
	for _, m := range []int{1 << 12, 1 << 20} {
		b.Run(fmt.Sprintf("rows=%d", m), func(b *testing.B) {
			cols := randomCols(rand.New(rand.NewSource(3)), m)
			rows := make([]Block, m)
			b.SetBytes(int64(m * Size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TransposeBits(rows, cols, 0, m)
			}
		})
	}
}
