//go:build !purego

package lpn

import "ironman/internal/block"

// kernel selects the SSE2 row kernels in gather_amd64.s. SSE2 is part
// of the amd64 baseline, so it is always true here; tests clear it to
// run the pure-Go rows.
var kernel = true

// gatherBlocksSSE2 is the block row kernel in gather_amd64.s. w may be
// nil.
//
//go:noescape
func gatherBlocksSSE2(out, w, r *block.Block, idx *uint32, rows, d int)

// gatherBitsSSE2 is the bit row kernel in gather_amd64.s.
//
//go:noescape
func gatherBitsSSE2(out, e *bool, idx *uint32, rows, d int)
