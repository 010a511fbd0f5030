package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

// TestShardCoversExactly: every index is visited exactly once, for
// worker counts below, at, and above n, including the inline path.
func TestShardCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 6, 7, 8, 63, 64, 65} {
			seen := make([]int32, n)
			ShardIndexed(workers, n, func(_, lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad range [%d,%d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestShardBalance: range sizes differ by at most one.
func TestShardBalance(t *testing.T) {
	var min, max atomic.Int64
	min.Store(1 << 30)
	ShardIndexed(4, 103, func(_, lo, hi int) {
		size := int64(hi - lo)
		for {
			m := min.Load()
			if size >= m || min.CompareAndSwap(m, size) {
				break
			}
		}
		for {
			m := max.Load()
			if size <= m || max.CompareAndSwap(m, size) {
				break
			}
		}
	})
	if max.Load()-min.Load() > 1 {
		t.Fatalf("shard sizes range %d..%d, want spread <= 1", min.Load(), max.Load())
	}
}
