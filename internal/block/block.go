// Package block implements 128-bit blocks, the unit of data in the whole
// OT-extension stack: COT payloads, the global correlation Δ, GGM tree
// nodes and PRG outputs are all single blocks.
//
// A Block is two little-endian uint64 limbs. Lo holds bytes 0..7 and Hi
// holds bytes 8..15 of the canonical byte representation.
package block

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Size is the byte length of a Block.
const Size = 16

// Block is a 128-bit value.
type Block struct {
	Lo, Hi uint64
}

// Zero is the all-zero block.
var Zero Block

// New builds a block from its two limbs.
func New(lo, hi uint64) Block { return Block{Lo: lo, Hi: hi} }

// FromBytes decodes the first 16 bytes of b (little-endian).
func FromBytes(b []byte) Block {
	return Block{
		Lo: binary.LittleEndian.Uint64(b[0:8]),
		Hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// Bytes returns the canonical 16-byte encoding.
func (b Block) Bytes() []byte {
	var out [Size]byte
	b.Put(out[:])
	return out[:]
}

// Put writes the 16-byte encoding into dst, which must have length >= 16.
func (b Block) Put(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], b.Lo)
	binary.LittleEndian.PutUint64(dst[8:16], b.Hi)
}

// Xor returns b ^ o.
func (b Block) Xor(o Block) Block { return Block{Lo: b.Lo ^ o.Lo, Hi: b.Hi ^ o.Hi} }

// And returns b & o.
func (b Block) And(o Block) Block { return Block{Lo: b.Lo & o.Lo, Hi: b.Hi & o.Hi} }

// IsZero reports whether b is all zero.
func (b Block) IsZero() bool { return b.Lo == 0 && b.Hi == 0 }

// Bit returns bit i (0 = least significant bit of Lo).
func (b Block) Bit(i int) int {
	if i < 64 {
		return int(b.Lo >> uint(i) & 1)
	}
	return int(b.Hi >> uint(i-64) & 1)
}

// OnesCount returns the Hamming weight of b.
func (b Block) OnesCount() int {
	return bits.OnesCount64(b.Lo) + bits.OnesCount64(b.Hi)
}

// MulBit returns b if bit==1 and the zero block otherwise, branch-free.
func (b Block) MulBit(bit uint64) Block {
	m := -(bit & 1) // all ones or all zeros
	return Block{Lo: b.Lo & m, Hi: b.Hi & m}
}

// Sigma applies the linear orthomorphism σ(a||b) = (a⊕b)||a used by the
// MMO correlation-robust hash (Guo et al.): with x = Hi||Lo, σ swaps the
// halves and XORs the high half into the low position.
func (b Block) Sigma() Block {
	return Block{Lo: b.Lo ^ b.Hi, Hi: b.Lo}
}

// String renders the block as 32 hex digits, high limb first.
//
//ironman:allow(secretleak) String is the one sanctioned hex renderer; leaks are caught where blocks meet fmt/log/obs call sites, which covers implicit String uses
func (b Block) String() string { return fmt.Sprintf("%016x%016x", b.Hi, b.Lo) }

// XorSlices sets dst[i] = a[i] ^ b[i] for every i. The three slices must
// have equal length; dst may alias a or b.
func XorSlices(dst, a, b []Block) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("block: XorSlices length mismatch")
	}
	for i := range dst {
		dst[i] = Block{Lo: a[i].Lo ^ b[i].Lo, Hi: a[i].Hi ^ b[i].Hi}
	}
}

// XorInto sets dst[i] ^= src[i].
func XorInto(dst, src []Block) {
	if len(dst) != len(src) {
		panic("block: XorInto length mismatch")
	}
	for i := range dst {
		dst[i].Lo ^= src[i].Lo
		dst[i].Hi ^= src[i].Hi
	}
}

// XorAll returns the XOR of every block in s (Zero for an empty slice).
func XorAll(s []Block) Block {
	var acc Block
	for _, b := range s {
		acc.Lo ^= b.Lo
		acc.Hi ^= b.Hi
	}
	return acc
}

// ToBytes flattens a block slice into its canonical byte encoding.
func ToBytes(s []Block) []byte {
	out := make([]byte, len(s)*Size)
	for i, b := range s {
		b.Put(out[i*Size:])
	}
	return out
}

// SliceFromBytes parses a flattened encoding produced by ToBytes.
func SliceFromBytes(b []byte) []Block {
	if len(b)%Size != 0 {
		panic("block: SliceFromBytes length not a multiple of 16")
	}
	out := make([]Block, len(b)/Size)
	for i := range out {
		out[i] = FromBytes(b[i*Size:])
	}
	return out
}

// Equal reports whether two block slices are identical.
func Equal(a, b []Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
