package aesprg

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"ironman/internal/block"
)

// onEachPath runs f on each arm of the kernel this build and CPU
// have, in one test binary: crypto/aes always, the eight-lane AES-NI
// arm and the sixteen-block VAES arm when the CPU executes them.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	hasAESNI, hasVAES := aesni, vaes
	t.Cleanup(func() { aesni, vaes = hasAESNI, hasVAES })
	for _, arm := range []struct {
		name        string
		aesni, vaes bool
		present     bool
	}{
		{"crypto-aes", false, false, true},
		{"aes-ni", true, false, hasAESNI},
		{"vaes", true, true, hasVAES},
	} {
		if !arm.present {
			t.Logf("no %s arm on this build or CPU", arm.name)
			continue
		}
		t.Run(arm.name, func(t *testing.T) {
			aesni, vaes = arm.aesni, arm.vaes
			f(t)
		})
	}
}

// freshRand returns a generator seeded afresh on every run, so repeated
// runs (-count) draw new keys, inputs and lengths; a failing run's seed
// is in its log.
func freshRand(t *testing.T) *rand.Rand {
	seed := rand.Uint64()
	t.Logf("seed %#x", seed)
	return rand.New(rand.NewPCG(seed, 0))
}

func randBlocks(r *rand.Rand, n int) []block.Block {
	out := make([]block.Block, n)
	for i := range out {
		out[i] = block.New(r.Uint64(), r.Uint64())
	}
	return out
}

// TestExpandKeyFIPS197 checks the Go key schedule against the AES-128
// expansion of FIPS-197 Appendix A.1.
func TestExpandKeyFIPS197(t *testing.T) {
	raw, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	var rk [176]byte
	expandKey(&rk, raw)
	for r, want := range map[int]string{
		1:  "a0fafe1788542cb123a339392a6c7605",
		5:  "d4d1c6f87c839d87caf2b8bc11f915bc",
		10: "d014f9a8c9ee2589e13f0cc8b6630ca6",
	} {
		if got := hex.EncodeToString(rk[16*r : 16*r+16]); got != want {
			t.Errorf("round key %d = %s, want %s", r, got, want)
		}
	}
}

// TestBlocksMatchCryptoAES holds the batched entry point, plain and
// MMO, to crypto/aes for random keys at every count up to 17 (each
// tail length, with and without a full eight-block pass) and around
// 4096, into a separate slice and in place.
func TestBlocksMatchCryptoAES(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := freshRand(t)
		ns := []int{}
		for n := 0; n <= 17; n++ {
			ns = append(ns, n)
		}
		for _, d := range []int{1, 7, 8, 9} {
			ns = append(ns, 4096-d, 4096+d)
		}
		for _, n := range ns {
			seed := block.New(r.Uint64(), r.Uint64())
			k := newKey(seed, false)
			ref, err := aes.NewCipher(seed.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			src := randBlocks(r, n)
			for _, mmo := range []bool{false, true} {
				want := make([]block.Block, n)
				for i, x := range src {
					var b [16]byte
					ref.Encrypt(b[:], x.Bytes())
					want[i] = block.FromBytes(b[:])
					if mmo {
						want[i] = want[i].Xor(x)
					}
				}
				got := make([]block.Block, n)
				k.blocks(got, src, mmo)
				inPlace := append([]block.Block(nil), src...)
				k.blocks(inPlace, inPlace, mmo)
				for i := range want {
					if got[i] != want[i] || inPlace[i] != want[i] {
						t.Fatalf("n=%d mmo=%v block %d: got %v, in place %v, want %v", n, mmo, i, got[i], inPlace[i], want[i])
					}
				}
			}
		}
	})
}

// TestSumBlocksMatchesSum holds SumBlocks and Sum to the hash computed
// with crypto/aes directly, AES_k0(σ(x) ⊕ t) ⊕ σ(x) ⊕ t, at tweaks
// whose low word wraps past 2^32, into a separate slice and in place.
func TestSumBlocksMatchesSum(t *testing.T) {
	ref, err := aes.NewCipher(fixedKeys[0][:])
	if err != nil {
		t.Fatal(err)
	}
	refSum := func(x block.Block, tweak uint64) block.Block {
		s := x.Sigma()
		s.Lo ^= tweak
		var b [16]byte
		ref.Encrypt(b[:], s.Bytes())
		return block.FromBytes(b[:]).Xor(s)
	}
	onEachPath(t, func(t *testing.T) {
		h := NewHash()
		r := freshRand(t)
		for _, base := range []uint64{0, 1<<32 - 5, 7<<32 - 1} {
			for _, n := range []int{1, 9, 40} {
				src := randBlocks(r, n)
				got := make([]block.Block, n)
				h.SumBlocks(got, src, base)
				inPlace := append([]block.Block(nil), src...)
				h.SumBlocks(inPlace, inPlace, base)
				for i, x := range src {
					want := refSum(x, base+uint64(i))
					if got[i] != want || inPlace[i] != want || h.Sum(x, base+uint64(i)) != want {
						t.Fatalf("base %#x n=%d block %d: got %v, in place %v, Sum %v, want %v",
							base, n, i, got[i], inPlace[i], h.Sum(x, base+uint64(i)), want)
					}
				}
			}
		}
	})
}

// TestCTRMatchesCryptoAES holds the counter-mode entry behind every
// stream draw to crypto/aes run over the counter blocks LE64(c+i) ‖
// 0^64: at every count up to 40 and at 8,191, 8,192 and 8,193 blocks
// (8,193 is softspoken's 131,088-byte leaf stream), from a random
// counter and from counters whose low 32 bits, and whose 64 bits, wrap
// inside a pass.
func TestCTRMatchesCryptoAES(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := freshRand(t)
		ns := []int{8191, 8192, 131088 / block.Size}
		for n := 0; n <= 40; n++ {
			ns = append(ns, n)
		}
		for _, n := range ns {
			for _, c := range []uint64{r.Uint64(), 1<<32 - 7, 5<<40 - 9, 1<<64 - 3} {
				seed := block.New(r.Uint64(), r.Uint64())
				k := newKey(seed, false)
				ref, err := aes.NewCipher(seed.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				// Five trailing bytes past the whole blocks must come
				// back untouched.
				want := make([]byte, n*block.Size+5)
				for i := range want[n*block.Size:] {
					want[n*block.Size+i] = 0xaa
				}
				for i := 0; i < n; i++ {
					b := want[i*block.Size : (i+1)*block.Size]
					binary.LittleEndian.PutUint64(b, c+uint64(i))
					ref.Encrypt(b, b)
				}
				got := make([]byte, len(want))
				copy(got[n*block.Size:], want[n*block.Size:])
				k.ctr(got, c)
				if !bytes.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d ctr=%#x: byte %d (block %d) differs from AES-CTR", n, c, i, i/block.Size)
						}
					}
				}
			}
		}
	})
}

// TestStreamMixedDraws reads one stream through random mixes of Fill
// and Blocks (lengths that start and end inside the buffer and span
// it), Uint32, Block and Bits, and holds the bytes to keystream blocks
// computed with crypto/aes directly.
func TestStreamMixedDraws(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := freshRand(t)
		seed := block.New(r.Uint64(), r.Uint64())
		ref, err := aes.NewCipher(seed.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(seed)
		var got []byte
		for len(got) < 64<<10 {
			switch r.IntN(5) {
			case 0:
				p := make([]byte, r.IntN(3*streamBuf*block.Size))
				s.Fill(p)
				got = append(got, p...)
			case 1:
				got = binary.LittleEndian.AppendUint32(got, s.Uint32())
			case 2:
				got = append(got, s.Block().Bytes()...)
			case 3:
				bits := make([]bool, 8*r.IntN(20))
				s.Bits(bits)
				for i := 0; i < len(bits); i += 8 {
					var b byte
					for j := range 8 {
						if bits[i+j] {
							b |= 1 << j
						}
					}
					got = append(got, b)
				}
			case 4:
				blocks := make([]block.Block, r.IntN(3*streamBuf))
				s.Blocks(blocks)
				for _, b := range blocks {
					got = append(got, b.Bytes()...)
				}
			}
		}
		want := make([]byte, (len(got)+15)&^15)
		for i := 0; i < len(want); i += 16 {
			binary.LittleEndian.PutUint64(want[i:], uint64(i/16))
			ref.Encrypt(want[i:i+16], want[i:i+16])
		}
		if !bytes.Equal(got, want[:len(got)]) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("byte %d of %d differs from the AES-CTR keystream", i, len(got))
				}
			}
		}
	})
}

func BenchmarkSumBlocks(b *testing.B) {
	h := NewHash()
	blocks := make([]block.Block, 512)
	b.SetBytes(int64(len(blocks)) * block.Size)
	for i := 0; b.Loop(); i++ {
		h.SumBlocks(blocks, blocks, uint64(i))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
}
