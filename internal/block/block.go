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
)

// Size is the byte length of a Block.
const Size = 16

// Block is a 128-bit value.
type Block struct {
	Lo, Hi uint64
}

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

// Bit returns bit i (0 = least significant bit of Lo).
func (b Block) Bit(i int) int {
	if i < 64 {
		return int(b.Lo >> uint(i) & 1)
	}
	return int(b.Hi >> uint(i-64) & 1)
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

// XorAll returns the XOR of every block in s (zero for an empty slice).
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
