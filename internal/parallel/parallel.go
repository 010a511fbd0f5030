// Package parallel provides the worker-sharding primitive behind the
// multicore Extend pipeline: contiguous-range sharding for row-parallel
// kernels (the software analog of the paper's rank-parallel LPN encode)
// and for independent tree expansions.
//
// The unit of work runs inline when a single worker (or a single item)
// makes goroutine fan-out pure overhead, so a Workers=1 pipeline is
// exactly the sequential code path.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS, anything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ShardIndexed splits [0, n) into at most `workers` contiguous
// half-open ranges and runs f(shard, lo, hi) on each, one goroutine per
// range, waiting for all of them. Ranges differ in size by at most one
// element, so regular workloads (LPN rows, hash batches) stay balanced.
// With workers <= 1 or n <= 1 the single range runs inline on the
// caller. The shard index is a stable 0-based worker id — the hook
// per-worker observability spans hang off: it is a deterministic
// function of (workers, n), never of goroutine scheduling, so a trace's
// worker lanes line up across iterations.
func ShardIndexed(workers, n int, f func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	chunk, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		go func(i, lo, hi int) {
			defer wg.Done()
			f(i, lo, hi)
		}(i, lo, hi)
		lo = hi
	}
	wg.Wait()
}
