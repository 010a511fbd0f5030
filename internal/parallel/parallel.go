// Package parallel provides the worker primitive behind the multicore
// Extend pipeline: a few workers claim chunks of an index range from
// one shared counter, for row-parallel kernels (the software analog of
// the paper's rank-parallel LPN encode), independent tree expansions
// and transpose tiles.
//
// Claiming in chunks rather than handing each worker one fixed share
// keeps every worker busy until the range runs out, whichever worker
// the scheduler or a cache slowed down. Every caller's index writes
// only its own output slot, so results do not depend on which worker
// claimed what.
//
// The unit of work runs inline when a single worker (or a single
// chunk) makes goroutine fan-out pure overhead, so a Workers=1
// pipeline is exactly the sequential code path.
package parallel

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS, anything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Chunks covers [0, n) with half-open ranges of chunk indices (the
// last one shorter) and runs f once per worker, on
// w = min(Workers(workers), ⌈n/chunk⌉) workers, waiting for all of
// them. Each worker ranges over its ranges sequence, which claims the
// worker's next [lo, hi) from one atomic counter until none is left;
// f must range over it to the end. Every index is claimed exactly
// once. worker is a 0-based id < w, so per-worker state (scratch
// buffers, trace lanes) hangs off it; which ranges a worker gets
// depends on scheduling. With w == 1, f runs inline on the caller.
func Chunks(workers, n, chunk int, f func(worker int, ranges iter.Seq2[int, int])) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		panic("parallel: Chunks chunk < 1")
	}
	claims := (n + chunk - 1) / chunk
	var next atomic.Int64
	ranges := func(yield func(lo, hi int) bool) {
		for {
			c := int(next.Add(1) - 1)
			if c >= claims {
				return
			}
			lo := c * chunk
			if !yield(lo, min(lo+chunk, n)) {
				return
			}
		}
	}
	w := min(Workers(workers), claims)
	if w <= 1 {
		f(0, ranges)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := range w {
		go func() {
			defer wg.Done()
			f(i, ranges)
		}()
	}
	wg.Wait()
}
