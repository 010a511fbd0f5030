package circuit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

var sha256K = [64]uint64{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// buildSHA256 constructs the SHA-256 compression-function circuit:
// inputs (512-bit message block, 256-bit chaining value), output (new
// 256-bit chaining value). Bytes use BytesBits layout; the chaining
// value is the big-endian digest encoding, so feeding the standard IV
// and a padded single-block message yields the message digest
// directly.
//
// Ch and Maj cost one AND per bit (Ch = g^(e&(f^g)), Maj =
// b^((a^b)&(c^b))); the Sigma rotations are free wire permutations.
// Multi-operand additions go through a carry-save tree into one
// Sklansky prefix add each, keeping the per-round AND depth at ~9
// instead of one ripple chain per addend.
//
// The circuit is self-checked against crypto/sha256 before it is
// returned.
func buildSHA256() (*Circuit, error) {
	b := NewBuilder()
	blk := b.Input(512)
	chain := b.Input(256)

	// Message schedule.
	w := make([][]int32, 64)
	for t := 0; t < 16; t++ {
		w[t] = beWord(blk, t)
	}
	for t := 16; t < 64; t++ {
		s0 := b.XorVec(b.XorVec(rotr(w[t-15], 7), rotr(w[t-15], 18)), shr(b, w[t-15], 3))
		s1 := b.XorVec(b.XorVec(rotr(w[t-2], 17), rotr(w[t-2], 19)), shr(b, w[t-2], 10))
		w[t] = b.SumMany(s1, w[t-7], s0, w[t-16])
	}

	// Working variables a..h = v[0..7].
	var v [8][]int32
	for i := range v {
		v[i] = beWord(chain, i)
	}
	h0 := v
	for t := 0; t < 64; t++ {
		e, f, g := v[4], v[5], v[6]
		bigS1 := b.XorVec(b.XorVec(rotr(e, 6), rotr(e, 11)), rotr(e, 25))
		ch := make([]int32, 32)
		for i := range ch {
			ch[i] = b.Xor(g[i], b.And(e[i], b.Xor(f[i], g[i])))
		}
		t1 := b.SumMany(v[7], bigS1, ch, b.ConstVec(sha256K[t], 32), w[t])
		a, c := v[0], v[2]
		bigS0 := b.XorVec(b.XorVec(rotr(a, 2), rotr(a, 13)), rotr(a, 22))
		maj := make([]int32, 32)
		for i := range maj {
			maj[i] = b.Xor(v[1][i], b.And(b.Xor(a[i], v[1][i]), b.Xor(c[i], v[1][i])))
		}
		t2 := b.Add(bigS0, maj)
		v[7], v[6], v[5] = v[6], v[5], v[4]
		v[4] = b.Add(v[3], t1)
		v[3], v[2], v[1] = v[2], v[1], v[0]
		v[0] = b.Add(t1, t2)
	}

	out := make([]int32, 256)
	for i := range v {
		word := b.Add(h0[i], v[i])
		// Word i occupies output bytes 4i..4i+3 big-endian.
		for j := 0; j < 4; j++ {
			copy(out[8*(4*i+j):], word[(3-j)*8:(3-j)*8+8])
		}
	}
	c, err := b.Finish(out)
	if err != nil {
		return nil, err
	}
	if err := checkSHA256(c); err != nil {
		return nil, err
	}
	return c, nil
}

// beWord extracts 32-bit word t from a BytesBits vector, big-endian:
// bit i of the word is bit i%8 of byte 4t+3-i/8. Free relabeling.
func beWord(bits []int32, t int) []int32 {
	w := make([]int32, 32)
	for i := range w {
		w[i] = bits[8*(4*t+3-i/8)+i%8]
	}
	return w
}

// rotr is the free 32-bit rotate right.
func rotr(x []int32, r int) []int32 {
	out := make([]int32, 32)
	for i := range out {
		out[i] = x[(i+r)%32]
	}
	return out
}

// shr is the 32-bit logical shift right (zero fill).
func shr(b *Builder, x []int32, r int) []int32 {
	out := make([]int32, 32)
	for i := range out {
		if i+r < 32 {
			out[i] = x[i+r]
		} else {
			out[i] = b.Const(0)
		}
	}
	return out
}

// sha256IV is the standard initial chaining value in digest encoding.
func sha256IV() [32]byte {
	var iv [32]byte
	for i, h := range [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	} {
		binary.BigEndian.PutUint32(iv[4*i:], h)
	}
	return iv
}

// sha256PadBlock pads a message of at most 55 bytes into its single
// SHA-256 block.
func sha256PadBlock(msg []byte) ([64]byte, error) {
	var blk [64]byte
	if len(msg) > 55 {
		return blk, fmt.Errorf("circuit: sha256PadBlock: message %d bytes does not fit one block", len(msg))
	}
	copy(blk[:], msg)
	blk[len(msg)] = 0x80
	binary.BigEndian.PutUint64(blk[56:], uint64(len(msg))*8)
	return blk, nil
}

func checkSHA256(c *Circuit) error {
	long := bytes.Repeat([]byte{0xa5, 0x3c, 0x7e}, 19)[:55]
	for _, msg := range [][]byte{[]byte("abc"), {}, long} {
		blk, err := sha256PadBlock(msg)
		if err != nil {
			return err
		}
		iv := sha256IV()
		want := sha256.Sum256(msg)
		got, err := c.EvalPlain([][]bool{BytesBits(blk[:]), BytesBits(iv[:])})
		if err != nil {
			return fmt.Errorf("sha256 self-check: %w", err)
		}
		if !bytes.Equal(BitsBytes(got[0]), want[:]) {
			return fmt.Errorf("sha256 self-check: circuit disagrees with crypto/sha256 on %q", msg)
		}
	}
	return nil
}
