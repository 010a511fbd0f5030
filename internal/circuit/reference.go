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

// references holds the reference circuits by name.
var references = map[string]func() *Circuit{
	"aes128": mustBuild("aes128", buildAES128),
	"sha256": mustBuild("sha256", buildSHA256),
	"div64":  mustBuild("div64", buildDivide64),
}

// Reference returns a reference circuit by name, built and
// self-checked on first use; it panics on any other name. The returned
// circuit is shared — treat it as read-only.
//
//   - "aes128": AES-128 encryption. Inputs (plaintext, key) of 128 bits
//     each in BytesBits layout, output the 128-bit ciphertext. 51200
//     ANDs at AND depth 40.
//   - "sha256": the SHA-256 compression function. Inputs (512-bit
//     padded message block, 256-bit chaining value), output the new
//     256-bit chaining value, byte-oriented big-endian encodings in
//     BytesBits layout.
//   - "div64": the 64-bit unsigned divider. Inputs (dividend, divisor),
//     outputs (quotient, remainder), LSB-first. Division by zero
//     yields quotient all-ones and remainder = dividend.
func Reference(name string) *Circuit {
	build, ok := references[name]
	if !ok {
		panic(fmt.Sprintf("circuit: no reference circuit %q", name))
	}
	return build()
}

// AES128 is Reference("aes128").
func AES128() *Circuit { return Reference("aes128") }
