package gmw

import (
	"fmt"

	"ironman/internal/transport"
)

// PackedShare is a word-packed XOR-shared bit vector: 64 bits per
// uint64 limb, LSB-first, with the invariant that bits at index >=
// Len() are zero in every limb. It is the engine's one share layout:
// XOR and NOT touch 64 gates per word op, and a batched AND layer
// ships the whole vector through one bit-packed OT exchange.
type PackedShare struct {
	n     int
	limbs []uint64
}

// NewPacked returns an all-zero packed share of n bits.
func NewPacked(n int) PackedShare {
	return PackedShare{n: n, limbs: make([]uint64, transport.PackedLimbs(n))}
}

// PackBools packs a bool vector, one bit per element.
func PackBools(bits []bool) PackedShare {
	s := NewPacked(len(bits))
	for i, b := range bits {
		if b {
			s.limbs[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return s
}

// Len returns the bit length.
func (s PackedShare) Len() int { return s.n }

// Bit reads bit i.
func (s PackedShare) Bit(i int) bool { return s.limbs[i/64]>>(uint(i)%64)&1 == 1 }

// Bools unpacks to a bool vector, one element per bit.
func (s PackedShare) Bools() []bool {
	out := make([]bool, s.n)
	for i := range out {
		out[i] = s.Bit(i)
	}
	return out
}

// maskTail zeroes bits past n in the last limb, restoring the
// PackedShare invariant after whole-limb operations like NOT.
func maskTail(limbs []uint64, n int) {
	if r := uint(n % 64); r != 0 {
		limbs[len(limbs)-1] &= 1<<r - 1
	}
}

// XorPacked is the free XOR gate over packed shares. A length
// mismatch is reported as an error, matching the error discipline of
// the pool-exhaustion paths.
func XorPacked(a, b PackedShare) (PackedShare, error) {
	if a.n != b.n {
		return PackedShare{}, fmt.Errorf("gmw: XorPacked length mismatch: %d vs %d", a.n, b.n)
	}
	return xorPacked(a, b), nil
}

// xorPacked is XorPacked for call sites whose operand lengths are
// already validated (every internal circuit builder).
func xorPacked(a, b PackedShare) PackedShare {
	out := PackedShare{n: a.n, limbs: make([]uint64, len(a.limbs))}
	for i := range out.limbs {
		out.limbs[i] = a.limbs[i] ^ b.limbs[i]
	}
	return out
}

// NotPacked flips a shared vector: only the first party flips its
// share (the complement of a public constant is free).
func (p *Party) NotPacked(a PackedShare) PackedShare {
	out := PackedShare{n: a.n, limbs: make([]uint64, len(a.limbs))}
	copy(out.limbs, a.limbs)
	if p.first {
		for i := range out.limbs {
			out.limbs[i] = ^out.limbs[i]
		}
		maskTail(out.limbs, out.n)
	}
	return out
}

// appendBits bit-concatenates src onto s (no limb-alignment padding:
// concatenated segments of any length consume exactly their own COTs).
func (s *PackedShare) appendBits(src PackedShare) {
	off := s.n
	s.n += src.n
	for len(s.limbs) < transport.PackedLimbs(s.n) {
		s.limbs = append(s.limbs, 0)
	}
	shift := uint(off % 64)
	base := off / 64
	for i, limb := range src.limbs {
		s.limbs[base+i] |= limb << shift
		if shift != 0 && base+i+1 < len(s.limbs) {
			s.limbs[base+i+1] |= limb >> (64 - shift)
		}
	}
}

// sliceBits extracts the n bits starting at off into a fresh share.
func (s PackedShare) sliceBits(off, n int) PackedShare {
	out := NewPacked(n)
	shift := uint(off % 64)
	base := off / 64
	for i := range out.limbs {
		limb := s.limbs[base+i] >> shift
		if shift != 0 && base+i+1 < len(s.limbs) {
			limb |= s.limbs[base+i+1] << (64 - shift)
		}
		out.limbs[i] = limb
	}
	maskTail(out.limbs, n)
	return out
}

// PackVec lays out n w-bit values as w bit-planes, LSB-first: bit j of
// plane i is bit i of vals[j]. This is the bitsliced layout every
// batched element-wise operation (GreaterThanVec, MuxVec, ReLUVec)
// works in — one plane op touches all elements at once.
func PackVec(vals []uint64, width int) []PackedShare {
	planes := make([]PackedShare, width)
	for i := range planes {
		planes[i] = NewPacked(len(vals))
		for j, v := range vals {
			planes[i].limbs[j/64] |= (v >> uint(i) & 1) << (uint(j) % 64)
		}
	}
	return planes
}

// UnpackVec recomposes bit-planes into values (the inverse of PackVec).
// All planes must have equal lengths (RevealVec checks this before any
// traffic).
func UnpackVec(planes []PackedShare) []uint64 {
	if len(planes) == 0 {
		return nil
	}
	vals := make([]uint64, planes[0].n)
	for i, pl := range planes {
		for j := range vals {
			vals[j] |= uint64(pl.limbs[j/64]>>(uint(j)%64)&1) << uint(i)
		}
	}
	return vals
}
