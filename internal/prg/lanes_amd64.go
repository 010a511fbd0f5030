//go:build !purego

package prg

import (
	"ironman/internal/aesprg"
	"ironman/internal/block"
)

// expand8 is the eight-lane ChaCha8 kernel, or nil when the CPU lacks
// AVX2. Tests swap it out to run the per-parent path.
var expand8 = func() func(dst, src, sums *block.Block, arity int) {
	if hasAVX2() {
		return chacha8x8AVX2
	}
	return nil
}()

// chacha8x8AVX2 is implemented in lanes_amd64.s.
//
//go:noescape
func chacha8x8AVX2(dst, src, sums *block.Block, arity int)

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the
// YMM registers: CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2 (SSE
// and AVX state), and CPUID.7:EBX bit 5, read through aesprg's CPUID
// and XGETBV stubs.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := aesprg.CPUID(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := aesprg.CPUID(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if aesprg.XGETBV()&6 != 6 {
		return false
	}
	_, ebx, _, _ := aesprg.CPUID(7, 0)
	return ebx&(1<<5) != 0
}
