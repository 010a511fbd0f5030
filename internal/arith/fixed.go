package arith

import "math"

// Fixed is a two's-complement fixed-point encoding over Z_2^64 with
// Frac fractional bits: v encodes as round(v·2^Frac) mod 2^64. A
// product of two encodings carries 2·Frac fractional bits and must be
// rescaled by TruncVec(·, Frac) — the matmul → truncate idiom of
// every fixed-point PPML linear layer.
type Fixed struct {
	Frac int
}

// Encode quantizes a real value.
func (f Fixed) Encode(v float64) uint64 {
	return uint64(int64(math.Round(v * float64(int64(1)<<uint(f.Frac)))))
}

// Decode returns the real value of an encoding (two's complement).
func (f Fixed) Decode(u uint64) float64 {
	return float64(int64(u)) / float64(int64(1)<<uint(f.Frac))
}

// EncodeVec quantizes a vector.
func (f Fixed) EncodeVec(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = f.Encode(v)
	}
	return out
}

// DecodeVec decodes a vector.
func (f Fixed) DecodeVec(us []uint64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f.Decode(u)
	}
	return out
}

// TruncVec rescales shares by 2^frac with SecureML-style probabilistic
// local truncation — no communication: the first party logically
// shifts its share, the second negates, shifts, and negates back.
//
// Error bound: writing the shared value as x with |x| <= 2^l (two's
// complement), the result is floor(x/2^frac) + e with |e| <= 1,
// except with probability <= 2^(l+1-64) (over the share randomness)
// the no-wrap assumption fails and the result is off by ~±2^(64-frac).
// Callers must keep values well below 2^63 (fixed-point ML activations
// are <= 2^30 or so, giving failure odds <= 2^-33 per element) and
// must only truncate RANDOMIZED shares — outputs of MatMul/B2A,
// not freshly-shared NewPrivate values whose peer share is zero.
func (p *Party) TruncVec(x Share, frac int) Share {
	out := make(Share, len(x))
	for i, v := range x {
		if p.first {
			out[i] = v >> uint(frac)
		} else {
			out[i] = -((-v) >> uint(frac))
		}
	}
	return out
}
