package circuit

import (
	"fmt"
	"sync"
)

// The reference circuits have one source: the deterministic builders
// in this package, each self-checked against the standard library. A
// circuit is built on its first use and shared for the life of the
// process.
func mustBuild(name string, build func() (*Circuit, error)) func() *Circuit {
	return sync.OnceValue(func() *Circuit {
		c, err := build()
		if err != nil {
			panic(fmt.Sprintf("circuit: reference %s circuit: %v", name, err))
		}
		return c
	})
}

var (
	aes128Once = mustBuild("aes128", buildAES128)
	sha256Once = mustBuild("sha256", buildSHA256)
	div64Once  = mustBuild("div64", buildDivide64)
)

// AES128 returns the AES-128 encryption circuit: inputs (plaintext,
// key) of 128 bits each in BytesBits layout, output the 128-bit
// ciphertext. 51200 ANDs at AND depth 40. The returned circuit is
// shared — treat it as read-only.
func AES128() *Circuit { return aes128Once() }

// SHA256 returns the SHA-256 compression circuit: inputs (512-bit
// padded message block, 256-bit chaining value), output the new
// 256-bit chaining value, byte-oriented big-endian encodings in
// BytesBits layout. The returned circuit is shared — treat it as
// read-only.
func SHA256() *Circuit { return sha256Once() }

// Divide64 returns the 64-bit unsigned divider: inputs (dividend,
// divisor), outputs (quotient, remainder), LSB-first. Division by zero
// yields quotient all-ones and remainder = dividend. The returned
// circuit is shared — treat it as read-only.
func Divide64() *Circuit { return div64Once() }
