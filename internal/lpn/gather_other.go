//go:build !amd64 || purego

package lpn

import "ironman/internal/block"

// kernel is false: this build has no row kernel, so every row runs the
// pure-Go loop.
var kernel = false

func gatherBlocksSSE2(out, w, r *block.Block, idx *uint32, rows, d int) {
	panic("lpn: no row kernel in this build")
}

func gatherBitsSSE2(out, e *bool, idx *uint32, rows, d int) {
	panic("lpn: no row kernel in this build")
}
