package aesprg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
	"unsafe"

	"ironman/internal/block"
)

// key is one AES-128 key in the two forms the package encrypts with:
// the round keys the batched kernel reads, and a crypto/aes block for
// the fallback (other architectures, CPUs without AES-NI, -tags
// purego). Every AES call in the package goes through blocks, ctr or
// encryptInPlace: sixteen blocks per kernel pass on the VAES arm,
// eight on the AES-NI arm.
type key struct {
	rk [176]byte    // round keys 0..10, FIPS-197 byte order
	c  cipher.Block // nil when the key was built for the kernel alone
}

// newKey expands k. A key built while the kernel is in use carries no
// crypto/aes block unless fallback is set; the shared fixed keys set
// it, so either path can run them.
func newKey(k block.Block, fallback bool) key {
	var kk key
	raw := k.Bytes()
	expandKey(&kk.rk, raw)
	if fallback || !aesni {
		var err error
		if kk.c, err = aes.NewCipher(raw); err != nil {
			panic(err) // unreachable: the key is 16 bytes
		}
	}
	return kk
}

// blocks writes AES_k(src[i]) into dst[i], XORed with src[i] when mmo
// is set (the MMO compression AES_k(x) ⊕ x). dst must be at least as
// long as src, and the two are the same slice or do not overlap.
func (k *key) blocks(dst, src []block.Block, mmo bool) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	if aesni {
		encryptBlocks(&k.rk, &dst[0], &src[0], len(src), mmo)
		return
	}
	k.blocksGo(dst, src, mmo)
}

// blocksGo is blocks through the crypto/aes block. Only its own buffer
// reaches the interface call, so dst and src do not escape and the
// kernel path of a caller's stack blocks allocates nothing.
func (k *key) blocksGo(dst, src []block.Block, mmo bool) {
	var b [block.Size]byte
	for i, x := range src {
		x.Put(b[:])
		k.c.Encrypt(b[:], b[:])
		y := block.FromBytes(b[:])
		if mmo {
			y = y.Xor(x)
		}
		dst[i] = y
	}
}

// ctr overwrites the whole blocks of p with AES_k(LE64(c+i) ‖ 0^64),
// i = 0, 1, .... The VAES arm builds the counters of whole
// sixteen-block passes in registers; the remaining blocks' counters are
// written into p and encrypted in place.
func (k *key) ctr(p []byte, c uint64) {
	n := len(p) / block.Size
	i := 0
	if vaes && n >= 16 {
		i = n &^ 15
		ctrVAES(&k.rk, (*block.Block)(unsafe.Pointer(&p[0])), c, i)
	}
	for j := i; j < n; j++ {
		b := p[j*block.Size : (j+1)*block.Size]
		binary.LittleEndian.PutUint64(b[:8], c+uint64(j))
		binary.LittleEndian.PutUint64(b[8:], 0)
	}
	k.encryptInPlace(p[i*block.Size : n*block.Size])
}

// encryptInPlace encrypts the whole 16-byte blocks of p in place.
func (k *key) encryptInPlace(p []byte) {
	n := len(p) / block.Size
	if n == 0 {
		return
	}
	if aesni {
		// The kernel reads and writes bytes; on amd64 a block's memory
		// is its canonical 16-byte encoding.
		b := (*block.Block)(unsafe.Pointer(&p[0]))
		encryptBlocks(&k.rk, b, b, n, false)
		return
	}
	for i := 0; i < n*block.Size; i += block.Size {
		k.c.Encrypt(p[i:i+block.Size], p[i:i+block.Size])
	}
}

// expandKey writes the eleven AES-128 round keys of raw (FIPS-197
// §5.2) into rk, in the byte order AESENC reads them.
func expandKey(rk *[176]byte, raw []byte) {
	copy(rk[:16], raw)
	rcon := byte(1)
	for i := 16; i < len(rk); i += 4 {
		t := [4]byte(rk[i-4 : i])
		if i%16 == 0 {
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = rcon<<1 ^ (rcon>>7)*0x1b
		}
		for j, b := range t {
			rk[i+j] = rk[i-16+j] ^ b
		}
	}
}

// sbox is the AES S-box (FIPS-197 §5.1.1), generated rather than
// tabulated: p walks GF(2^8)* by multiplying by 3 while q walks it by
// dividing by 3, so q is always p's inverse, and the affine map of q
// is S(p). The key schedule is its only user.
var sbox = func() (s [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= p<<1 ^ (p>>7)*0x1b
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		q ^= (q >> 7) * 0x09
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^
			bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}()
