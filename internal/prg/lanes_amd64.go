//go:build !purego

package prg

import (
	"ironman/internal/aesprg"
	"ironman/internal/block"
)

// expand8 is the eight-lane ChaCha8 kernel, or nil when the CPU lacks
// AVX2. Tests swap it out to run the per-parent path.
var expand8 = func() func(dst, src, sums *block.Block, arity int) {
	if aesprg.AVX2() {
		return chacha8x8AVX2
	}
	return nil
}()

// chacha8x8AVX2 is implemented in lanes_amd64.s.
//
//go:noescape
func chacha8x8AVX2(dst, src, sums *block.Block, arity int)
