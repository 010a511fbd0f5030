//go:build !purego

package aesprg

import "ironman/internal/block"

// aesni reports whether the CPU executes AES-NI (CPUID.1:ECX bit 25),
// read once at start-up. Tests clear it to run the crypto/aes path.
var aesni = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
}()

// vaes reports whether the kernel runs its sixteen-block VAES arm:
// AES-NI, AVX2 and VAES (CPUID.7.0:ECX bit 9) with the YMM registers
// saved, read once at start-up. encryptBlocks reads it from assembly.
// Tests clear it to run the eight-lane AES-NI arm.
var vaes = func() bool {
	_, ecx := ymmFeatures()
	return aesni && AVX2() && ecx&(1<<9) != 0
}()

// AVX2 reports whether the CPU executes AVX2 (CPUID.7.0:EBX bit 5) with
// the YMM registers saved. prg's ChaCha8 lane kernel reads it.
func AVX2() bool {
	ebx, _ := ymmFeatures()
	return ebx&(1<<5) != 0
}

// ymmFeatures returns CPUID.7.0's EBX and ECX feature words when the
// CPU executes AVX and the OS saves the YMM registers (CPUID.1:ECX
// OSXSAVE and AVX, XCR0 bits 1 and 2, SSE and AVX state), and zero
// otherwise: a YMM feature bit counts only with its registers saved.
// It is the module's one statement of that check.
func ymmFeatures() (ebx, ecx uint32) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0, 0
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return 0, 0
	}
	if xgetbv()&6 != 6 {
		return 0, 0
	}
	_, ebx, ecx, _ = cpuid(7, 0)
	return ebx, ecx
}

// encryptBlocks is the kernel in kernel_amd64.s: n blocks from src
// through the eleven round keys rk into dst, XORed with their input
// when mmo is set; sixteen per pass on the VAES arm, then eight per
// pass and one at a time on the AES-NI arm.
//
//go:noescape
func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool)

// ctrVAES is the VAES arm in counter mode: dst[i] = AES(LE64(ctr+i) ‖
// 0^64) for the n&^15 first blocks, with the counters built in
// registers.
//
//go:noescape
func ctrVAES(rk *[176]byte, dst *block.Block, ctr uint64, n int)

// cpuid executes the CPUID instruction for leaf and sub-leaf.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the register state the OS saves.
func xgetbv() (xcr0 uint32)
