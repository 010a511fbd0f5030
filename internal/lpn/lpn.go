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

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/obs"
	"ironman/internal/parallel"
)

// DefaultD is the row weight of the baseline parameter sets (each
// output depends on exactly 10 input positions).
const DefaultD = 10

// Code is a fixed d-regular sparse matrix in the compressed form the
// paper calls CSR-with-implicit-values: only the column indices are
// stored (all values are 1, all rows have exactly D entries, so Rowptr
// is implicit).
type Code struct {
	N, K, D int
	// idx holds the column indices row-major: row i uses
	// idx[i*D : (i+1)*D]. Only New writes it, and every value is < K:
	// the row kernels (gather.go) read their inputs here unchecked.
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
	c := &Code{N: n, K: k, D: d, idx: make([]uint32, n*d)}
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

// EncodeBlocksParallel computes out[i] = w[i] ⊕ XOR_j r[A_i,j] for
// every row, sharded across up to `workers` goroutines by contiguous row
// ranges — the software analog of the paper's rank-parallel encode. w
// may be nil, in which case the pure syndrome r·A is produced; out must
// have length N and r length K. Rows are independent (each writes only
// out[i] and reads the shared r/w), so the output is identical for any
// worker count; workers <= 0 selects runtime.GOMAXPROCS, 1 is the
// sequential path. Each shard runs the row kernel (gather.go).
func (c *Code) EncodeBlocksParallel(out, r, w []block.Block, workers int) {
	c.EncodeBlocksSpans(out, r, w, workers, nil, 0)
}

// EncodeBlocksSpans is EncodeBlocksParallel with per-worker tracing:
// each shard records an "lpn.encode" span on thread tidBase+1+shard
// with its row range, making the rank-parallel encode — the
// memory-bound phase the paper's NMP design accelerates — visible in
// the trace viewer one worker lane at a time. tr == nil is exactly
// EncodeBlocksParallel.
func (c *Code) EncodeBlocksSpans(out, r, w []block.Block, workers int, tr *obs.Tracer, tidBase int) {
	if len(out) != c.N || len(r) != c.K {
		panic("lpn: EncodeBlocksSpans dimension mismatch")
	}
	if w != nil && len(w) != c.N {
		panic("lpn: EncodeBlocksSpans w dimension mismatch")
	}
	parallel.ShardIndexed(workers, c.N, func(shard, lo, hi int) {
		sp := tr.Span("lpn.encode", "extend.worker", tidBase+1+shard)
		ws := w
		if w != nil {
			ws = w[lo:hi]
		}
		gatherBlocks(out[lo:hi], ws, r, c.idx[lo*c.D:hi*c.D], c.D)
		if sp.Live() {
			sp.EndArgs(map[string]any{"rows": hi - lo, "lo": lo})
		}
	})
}

// EncodeBitsParallel computes out[i] = u[i] ⊕ XOR_j e[A_i,j] over
// GF(2), sharded across up to `workers` goroutines by contiguous row
// ranges. u is given as a sparse set of positions (the MPCOT noise
// positions); every position must lie in [0, N) — an out-of-range point
// means the caller's noise vector does not match this code, which would
// silently break the output correlation, so it is reported as an error
// instead. The points are validated up front and applied after the
// dense phase completes, so the result is identical for any worker
// count.
func (c *Code) EncodeBitsParallel(out, e []bool, points []int, workers int) error {
	return c.EncodeBitsSpans(out, e, points, workers, nil, 0)
}

// EncodeBitsSpans is EncodeBitsParallel with per-worker "lpn.noise"
// spans on threads tidBase+1+shard (see EncodeBlocksSpans).
func (c *Code) EncodeBitsSpans(out, e []bool, points []int, workers int, tr *obs.Tracer, tidBase int) error {
	if len(out) != c.N || len(e) != c.K {
		panic("lpn: EncodeBitsSpans dimension mismatch")
	}
	for _, p := range points {
		if p < 0 || p >= c.N {
			return fmt.Errorf("lpn: noise point %d outside [0,%d)", p, c.N)
		}
	}
	parallel.ShardIndexed(workers, c.N, func(shard, lo, hi int) {
		sp := tr.Span("lpn.noise", "extend.worker", tidBase+1+shard)
		gatherBits(out[lo:hi], e, c.idx[lo*c.D:hi*c.D], c.D)
		if sp.Live() {
			sp.EndArgs(map[string]any{"rows": hi - lo, "lo": lo})
		}
	})
	for _, p := range points {
		out[p] = !out[p]
	}
	return nil
}
