// Package aesprg provides the AES-based primitives every OT-extension
// implementation on CPUs uses (§2.3.1 of the paper): fixed-key AES as a
// length-doubling PRG for GGM trees, an AES-CTR pseudorandom stream, and
// the MMO-style correlation-robust hash H used to convert COT
// correlations into chosen-message OTs.
//
// NewLocal is the one source of endpoint-local randomness (GGM roots,
// punctured positions, choice bits, Δ, dealt reserves, masks): every
// endpoint keys one stream, from a caller seed or from crypto/rand.
//
// Every AES call goes through one batched kernel (kernel.go) with three
// arms: sixteen blocks per pass in YMM registers on amd64 CPUs with
// VAES, eight in XMM registers on those with AES-NI alone, crypto/aes
// otherwise and under -tags purego. All three give the same bytes.
package aesprg

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	"unsafe"

	"ironman/internal/block"
)

// Fixed public PRG keys. Any fixed constants work: GGM security rests on
// the seed being secret, the keys are a public parameter of the scheme
// (this mirrors the fixed-key AES used by EMP/Ferret).
var fixedKeys = [4][16]byte{
	{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f},
	{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb, 0xdc, 0xed, 0xfe, 0x0f},
	{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77},
	{0x13, 0x57, 0x9b, 0xdf, 0x24, 0x68, 0xac, 0xe0, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88},
}

// MaxArity is the widest expansion Expand supports: one fixed key per
// child.
const MaxArity = len(fixedKeys)

// fixed holds one key per fixed key, expanded once and shared by every
// expansion and hash (a key is read-only after construction).
var fixed = func() (k [MaxArity]key) {
	for i := range fixedKeys {
		k[i] = newKey(block.FromBytes(fixedKeys[i][:]), true)
	}
	return k
}()

// Expand is the length-m-tupling PRG built from fixed-key AES: it
// writes child_i(s) = AES_{k_i}(s) ⊕ s for each of the first
// len(children) children of parent; len(children) must be between 1
// and MaxArity. Each child costs exactly one AES call, so a full m-ary
// expansion is m AES ops — the quantity Figures 6/7a count.
func Expand(parent block.Block, children []block.Block) {
	p := [1]block.Block{parent}
	for i := range children {
		ExpandChild(i, children[i:i+1], p[:])
	}
}

// ExpandChild writes Expand's child c of every parent in one kernel
// call: dst[i] = AES_{k_c}(parents[i]) ⊕ parents[i], c < MaxArity. dst
// is at least as long as parents, and the two are the same slice or do
// not overlap.
func ExpandChild(c int, dst, parents []block.Block) {
	fixed[c].blocks(dst, parents, true)
}

// Hash is the MMO correlation-robust hash H(x) = AES_k(σ(x)) ⊕ σ(x)
// with a fixed key and the linear orthomorphism σ from Guo et al.
// A per-use tweak (e.g. the OT instance index) is XORed into the input
// to give each invocation an independent random oracle.
type Hash struct {
	k *key
}

// NewHash returns the standard CRHF instance, keyed with the first
// fixed key.
func NewHash() *Hash { return &Hash{k: &fixed[0]} }

// Sum computes H(x ⊕ tweak).
func (h *Hash) Sum(x block.Block, tweak uint64) block.Block {
	s := [1]block.Block{x}
	h.SumBlocks(s[:], s[:], tweak)
	return s[0]
}

// SumBlocks sets dst[i] = Sum(src[i], tweakBase+i) for every i in one
// kernel call. dst must be at least as long as src, and the two are
// the same slice or do not overlap.
func (h *Hash) SumBlocks(dst, src []block.Block, tweakBase uint64) {
	dst = dst[:len(src)]
	for i, x := range src {
		s := x.Sigma()
		s.Lo ^= tweakBase + uint64(i)
		dst[i] = s
	}
	h.k.blocks(dst, dst, true)
}

// Stream is a deterministic AES-CTR pseudorandom stream seeded by a
// block: keystream block i is AES_seed(LE64(i) ‖ 0^64). It backs the
// IKNP and SoftSpoken column expansion and the LPN index matrix.
type Stream struct {
	k   key
	ctr uint64 // next keystream block to encrypt
	buf [streamBuf * block.Size]byte
	n   int     // bytes of buf already consumed
	mod modulus // the divisor of the last Uint32n call
}

// modulus is one Uint32n divisor with what its draws reuse: the
// rejection threshold and the fastmod reciprocal.
type modulus struct {
	n, limit uint32
	m        uint64
}

// streamBuf is the number of keystream blocks one refill of a Stream's
// buffer encrypts: one pass of the kernel's VAES arm.
const streamBuf = 16

// NewStream returns a PRG stream keyed by seed.
func NewStream(seed block.Block) *Stream {
	s := &Stream{k: newKey(seed, false)}
	s.n = len(s.buf)
	return s
}

// NewLocal returns one endpoint's private randomness stream. A
// non-zero seed keys it with seed⊕domain, so a seeded run is a pure
// function of its seed and each role (domain) draws disjoint bytes —
// NOT secure, for determinism checks and benchmarks. A zero seed keys
// it with one fresh crypto/rand block; domain is then irrelevant.
func NewLocal(seed, domain block.Block) *Stream {
	if seed != (block.Block{}) {
		return NewStream(seed.Xor(domain))
	}
	var key [block.Size]byte
	// crypto/rand.Read never returns an error: it crashes the program
	// instead (Go 1.24).
	_, _ = rand.Read(key[:])
	return NewStream(block.FromBytes(key[:]))
}

// keystream overwrites the whole blocks of p with the next keystream
// blocks.
func (s *Stream) keystream(p []byte) {
	s.k.ctr(p, s.ctr)
	s.ctr += uint64(len(p) / block.Size)
}

// read copies the next len(p) stream bytes out of the buffer, which it
// refills streamBuf blocks at a time. p never reaches the cipher, so
// the small draws' stack arrays do not escape: they go through here,
// not through Fill.
func (s *Stream) read(p []byte) {
	for len(p) > 0 {
		if s.n == len(s.buf) {
			s.keystream(s.buf[:])
			s.n = 0
		}
		n := copy(p, s.buf[s.n:])
		s.n += n
		p = p[n:]
	}
}

// Fill overwrites p with pseudorandom bytes. It drains the buffer
// first, then encrypts whole blocks straight into p, so a mix of Fill
// and the small draws reads one byte stream.
func (s *Stream) Fill(p []byte) {
	head := min(len(s.buf)-s.n, len(p))
	s.read(p[:head])
	p = p[head:]
	whole := len(p) &^ (block.Size - 1)
	s.keystream(p[:whole])
	s.read(p[whole:])
}

// Uint32 returns the next pseudorandom 32-bit value.
func (s *Stream) Uint32() uint32 {
	if s.n <= len(s.buf)-4 {
		v := binary.LittleEndian.Uint32(s.buf[s.n:])
		s.n += 4
		return v
	}
	var b [4]byte
	s.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Uint64 returns the next pseudorandom 64-bit value.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Uint32n returns a pseudorandom value in [0, n) using rejection
// sampling, so the distribution is exactly uniform. The threshold and
// reciprocal are computed when n differs from the last call's, so a
// run of draws with one n (lpn.New's) costs no division.
func (s *Stream) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("aesprg: Uint32n(0)")
	}
	if n != s.mod.n {
		// Rejection threshold: values below 2^32 mod n would bias the
		// remainder. (2^32 - n) % n == 2^32 % n.
		s.mod = modulus{n: n, limit: -n % n, m: reciprocal(n)}
	}
	for {
		if v := s.Uint32(); v >= s.mod.limit {
			return fastmod(v, s.mod.m, n)
		}
	}
}

// reciprocal returns ⌊(2^64 − 1)/n⌋ + 1, the multiplier fastmod
// reduces by n with (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019). It wraps to 0 for n = 1.
func reciprocal(n uint32) uint64 { return ^uint64(0)/uint64(n) + 1 }

// fastmod returns v % n for m = reciprocal(n): the low 64 bits of m·v
// are the fraction v/n scaled by 2^64, and times n its high word is
// the remainder. It is exact for every 32-bit v and n ≥ 1.
func fastmod(v uint32, m uint64, n uint32) uint32 {
	hi, _ := bits.Mul64(m*uint64(v), uint64(n))
	return uint32(hi)
}

// Block returns the next pseudorandom block.
func (s *Stream) Block() block.Block {
	var b [16]byte
	s.read(b[:])
	return block.FromBytes(b[:])
}

// Blocks fills dst with pseudorandom blocks: the next 16·len(dst)
// stream bytes, Fill'd straight into dst's memory and decoded in place
// where that memory is not already the blocks' little-endian encoding.
func (s *Stream) Blocks(dst []block.Block) {
	if len(dst) == 0 {
		return
	}
	p := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*block.Size)
	s.Fill(p)
	if !littleEndian {
		for i := range dst {
			dst[i] = block.FromBytes(p[i*block.Size:])
		}
	}
}

// littleEndian reports whether a block's memory is its canonical
// encoding: Lo's bytes then Hi's, each least significant first.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Bits fills dst with pseudorandom booleans.
func (s *Stream) Bits(dst []bool) {
	for i := 0; i < len(dst); i += 8 {
		var b [1]byte
		s.read(b[:])
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = b[0]>>uint(j)&1 == 1
		}
	}
}
