package parallel

import (
	"bytes"
	"iter"
	"runtime"
	"strconv"
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

// TestChunksCoversExactly: every index is visited exactly once, every
// range is one aligned chunk (the last one shorter), and worker ids
// are < min(workers, chunks) and all in use, for worker counts below,
// at and above the chunk count, including the inline path.
func TestChunksCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 7, 64, 65, 3*4096 + 7} {
			for _, chunk := range []int{1, 3, 4096} {
				w := min(workers, (n+chunk-1)/chunk)
				seen := make([]int32, n)
				used := make([]atomic.Int32, max(w, 1))
				Chunks(workers, n, chunk, func(worker int, ranges iter.Seq2[int, int]) {
					if worker < 0 || worker >= w {
						t.Errorf("workers=%d n=%d chunk=%d: worker id %d, want < %d", workers, n, chunk, worker, w)
						return
					}
					used[worker].Add(1)
					for lo, hi := range ranges {
						if lo < 0 || hi > n || lo >= hi || lo%chunk != 0 || (hi-lo != chunk && hi != n) {
							t.Errorf("workers=%d n=%d chunk=%d: bad range [%d,%d)", workers, n, chunk, lo, hi)
							return
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&seen[i], 1)
						}
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d chunk=%d: index %d visited %d times", workers, n, chunk, i, c)
					}
				}
				for i := range w {
					if c := used[i].Load(); c != 1 {
						t.Fatalf("workers=%d n=%d chunk=%d: worker %d ran %d times, want 1", workers, n, chunk, i, c)
					}
				}
			}
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// TestChunksOneWorkerInline: one worker, asked for or left by a range
// of one chunk, runs on the caller's goroutine; two workers do not.
func TestChunksOneWorkerInline(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ workers, n, chunk int }{{1, 100, 3}, {7, 10, 16}, {0, 1, 1}} {
		ran := 0
		Chunks(tc.workers, tc.n, tc.chunk, func(worker int, ranges iter.Seq2[int, int]) {
			if id := goid(); id != caller {
				t.Errorf("%+v: f ran on goroutine %d, caller is %d", tc, id, caller)
			}
			for range ranges {
				ran++
			}
		})
		if want := (tc.n + tc.chunk - 1) / tc.chunk; ran != want {
			t.Fatalf("%+v: %d chunks ran, want %d", tc, ran, want)
		}
	}
	var inline atomic.Int32
	Chunks(2, 2, 1, func(_ int, ranges iter.Seq2[int, int]) {
		if goid() == caller {
			inline.Add(1)
		}
		for range ranges {
		}
	})
	if inline.Load() != 0 {
		t.Fatal("two workers: f ran on the caller's goroutine")
	}
}
