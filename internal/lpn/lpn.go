// Package lpn implements the local linear code used by PCG-style OT
// extension (§2.3.2 of the paper): a d-regular sparse binary matrix A
// (k columns, n rows when viewed output-major) fixed once per parameter
// set. Encoding is the memory-bound half of the protocol:
//
//	sender:    z = r·A ⊕ w            (blocks)
//	receiver:  x = e·A ⊕ u            (bits)
//	           y = s·A ⊕ v            (blocks)
//
// where every output row XORs d=10 randomly indexed entries of the
// length-k input — the irregular access pattern the Ironman NMP
// architecture attacks with rank parallelism, a memory-side cache and
// compile-time index sorting (implemented in sort.go).
package lpn

import (
	"fmt"
	"iter"
	"runtime"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/obs"
	"ironman/internal/parallel"
)

// DefaultD is the row weight of the baseline parameter sets (each
// output depends on exactly 10 input positions).
const DefaultD = 10

// encodeChunk is the rows one worker claims at a time in the encoders,
// about 0.13 ms of row kernel at 2^20. The runtime cannot preempt the
// kernel, so a stop-the-world waits for at most one chunk per worker;
// claiming also keeps both workers busy to the last chunk. A sweep of
// 1024, 4096, 16384 and 65536 rows found 4096 fastest.
const encodeChunk = 4096

// Code is a fixed d-regular sparse matrix in the compressed form the
// paper calls CSR-with-implicit-values: only the column indices are
// stored (all values are 1, all rows have exactly D entries, so Rowptr
// is implicit).
type Code struct {
	N, K, D int
	// idx holds the column indices row-major: row i uses
	// idx[i*D : (i+1)*D]. Only New writes it, and every value is < K:
	// the row kernels (gather.go) read their inputs here unchecked.
	// New may map it outside the Go heap (newIdx) and unmap it when the
	// Code is collected, so every function that reads idx keeps c alive
	// until its last read (runtime.KeepAlive(c)).
	idx []uint32
}

// New derives the code for (n, k, d) from seed. The derivation is a
// deterministic AES-CTR stream, mirroring how both parties of the real
// protocol regenerate the same fixed matrix A from a public seed. The d
// indices within a row are distinct (regular code).
func New(seed block.Block, n, k, d int) *Code {
	if n < 1 || k < d || d < 1 {
		panic(fmt.Sprintf("lpn: bad dimensions n=%d k=%d d=%d", n, k, d))
	}
	s := aesprg.NewStream(seed)
	idx, free := newIdx(n * d)
	c := &Code{N: n, K: k, D: d, idx: idx}
	if free != nil {
		runtime.AddCleanup(c, func(free func()) { free() }, free)
	}
	for i := 0; i < n; i++ {
		row := c.idx[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
		draw:
			v := s.Uint32n(uint32(k))
			for jj := 0; jj < j; jj++ {
				if row[jj] == v {
					goto draw
				}
			}
			row[j] = v
		}
	}
	return c
}

// newIdx returns zeroed storage for n indices. With offHeap set it
// tries an anonymous private mapping first (idx_linux.go), which the GC
// neither scans nor counts toward its heap goal: the 2^20 matrix is
// 48 MB that would otherwise double into the goal beside every Extend's
// working set. free unmaps it; it is nil for storage from make.
func newIdx(n int) (idx []uint32, free func()) {
	if offHeap {
		if idx, free := mapIdx(n); idx != nil {
			return idx, free
		}
	}
	return make([]uint32, n), nil
}

// EncodeBlocksParallel computes out[i] = w[i] ⊕ XOR_j r[A_i,j] for
// every row, on up to `workers` goroutines that claim encodeChunk rows
// at a time — the software analog of the paper's rank-parallel encode.
// w may be nil, in which case the pure syndrome r·A is produced; out
// must have length N and r length K. out may be exactly w (an in-place
// encode: each row reads w[i] before it stores out[i]) but must not
// otherwise overlap w or r. Rows are independent (each writes only
// out[i] and reads the shared r/w), so the output is identical for any
// worker count; workers <= 0 selects runtime.GOMAXPROCS, 1 is the
// sequential path. Each chunk is one call of the row kernel
// (gather.go).
func (c *Code) EncodeBlocksParallel(out, r, w []block.Block, workers int) {
	c.EncodeBlocksSpans(out, r, w, workers, nil, 0)
}

// EncodeBlocksSpans is EncodeBlocksParallel with per-worker tracing:
// each worker records one "lpn.encode" span on thread
// tidBase+1+worker with the rows it encoded, making the rank-parallel
// encode — the memory-bound phase the paper's NMP design accelerates —
// visible in the trace viewer one worker lane at a time. tr == nil is
// exactly EncodeBlocksParallel. out may be exactly w, as there.
func (c *Code) EncodeBlocksSpans(out, r, w []block.Block, workers int, tr *obs.Tracer, tidBase int) {
	if len(out) != c.N || len(r) != c.K {
		panic("lpn: EncodeBlocksSpans dimension mismatch")
	}
	if w != nil && len(w) != c.N {
		panic("lpn: EncodeBlocksSpans w dimension mismatch")
	}
	parallel.Chunks(workers, c.N, encodeChunk, func(worker int, ranges iter.Seq2[int, int]) {
		sp := tr.Span("lpn.encode", "extend.worker", tidBase+1+worker)
		rows := 0
		for lo, hi := range ranges {
			ws := w
			if w != nil {
				ws = w[lo:hi]
			}
			gatherBlocks(out[lo:hi], ws, r, c.idx[lo*c.D:hi*c.D], c.D)
			rows += hi - lo
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"rows": rows})
		}
	})
	runtime.KeepAlive(c)
}

// EncodeBitsParallel computes out[i] = u[i] ⊕ XOR_j e[A_i,j] over
// GF(2), on up to `workers` goroutines that claim encodeChunk rows at a
// time. u is given as a sparse set of positions (the MPCOT noise
// positions); every position must lie in [0, N) — an out-of-range point
// means the caller's noise vector does not match this code, which would
// silently break the output correlation, so it is reported as an error
// instead. The points are validated up front and applied after the
// dense phase completes, so the result is identical for any worker
// count.
func (c *Code) EncodeBitsParallel(out, e []bool, points []int, workers int) error {
	return c.EncodeBitsSpans(out, e, points, workers, nil, 0)
}

// EncodeBitsSpans is EncodeBitsParallel with one "lpn.noise" span per
// worker on thread tidBase+1+worker (see EncodeBlocksSpans).
func (c *Code) EncodeBitsSpans(out, e []bool, points []int, workers int, tr *obs.Tracer, tidBase int) error {
	if len(out) != c.N || len(e) != c.K {
		panic("lpn: EncodeBitsSpans dimension mismatch")
	}
	for _, p := range points {
		if p < 0 || p >= c.N {
			return fmt.Errorf("lpn: noise point %d outside [0,%d)", p, c.N)
		}
	}
	parallel.Chunks(workers, c.N, encodeChunk, func(worker int, ranges iter.Seq2[int, int]) {
		sp := tr.Span("lpn.noise", "extend.worker", tidBase+1+worker)
		rows := 0
		for lo, hi := range ranges {
			gatherBits(out[lo:hi], e, c.idx[lo*c.D:hi*c.D], c.D)
			rows += hi - lo
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"rows": rows})
		}
	})
	runtime.KeepAlive(c)
	for _, p := range points {
		out[p] = !out[p]
	}
	return nil
}
