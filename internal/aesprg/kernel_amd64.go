//go:build !purego

package aesprg

import "ironman/internal/block"

// aesni reports whether the CPU executes AES-NI (CPUID.1:ECX bit 25),
// read once at start-up. Tests clear it to run the crypto/aes path.
var aesni = func() bool {
	_, _, ecx, _ := CPUID(1, 0)
	return ecx&(1<<25) != 0
}()

// encryptBlocks is the AES-NI kernel in kernel_amd64.s: n blocks from
// src through the eleven round keys rk into dst, eight per pass, XORed
// with their input when mmo is set.
//
//go:noescape
func encryptBlocks(rk *[176]byte, dst, src *block.Block, n int, mmo bool)

// CPUID executes the CPUID instruction for leaf and sub-leaf. It is the
// module's one CPUID stub: prg reads AVX2 support through it.
func CPUID(leaf, sub uint32) (a, b, c, d uint32)

// XGETBV returns the low word of XCR0, the register state the OS saves.
func XGETBV() (xcr0 uint32)
