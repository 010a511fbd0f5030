package circuit

import (
	"bytes"
	"crypto/aes"
	"fmt"
	"sync"
)

// AES128 returns the AES-128 encryption circuit. Inputs (plaintext,
// key) are 128 bits each in BytesBits layout and the output is the
// 128-bit ciphertext: 51200 ANDs at AND depth 40. It is built and
// self-checked on first use and shared for the life of the process —
// treat it as read-only.
func AES128() *Circuit { return aes128() }

var aes128 = sync.OnceValue(func() *Circuit {
	c, err := buildAES128()
	if err != nil {
		panic(fmt.Sprintf("circuit: AES-128 circuit: %v", err))
	}
	return c
})

// buildAES128 constructs the AES-128 encryption circuit: inputs
// (plaintext 128 bits, key 128 bits), output (ciphertext 128 bits),
// all in BytesBits layout (bit j of byte i at wire 8i+j). The key
// schedule runs in-circuit, so the key may itself be secret-shared —
// the threshold-AES setting of examples/private-aes.
//
// The S-box is computed algebraically: GF(2^8) inversion as the x^254
// addition chain x2 -> x3 -> x12 -> x15 -> x240 -> x252 -> x254 (four
// schoolbook multiplications of 64 ANDs each; squarings are linear and
// free), then the free affine map. ShiftRows, MixColumns and
// AddRoundKey are XOR-only. 200 S-boxes (160 state + 40 key schedule)
// give 51200 ANDs at AND depth 40 — four multiplication levels per
// round, with the key schedule's S-boxes riding the same levels.
//
// The circuit is self-checked against crypto/aes before it is
// returned.
func buildAES128() (*Circuit, error) {
	b := NewBuilder()
	ptBits := b.Input(128)
	keyBits := b.Input(128)

	pt := toBytes(ptBits)
	key := toBytes(keyBits)

	// Key expansion (FIPS-197 5.2): w[i] is a 4-byte word; round key r
	// is w[4r..4r+3], one word per state column.
	rcon := [10]uint64{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36}
	w := make([][4][]int32, 44)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			w[i][j] = key[4*i+j]
		}
	}
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			rot := [4][]int32{t[1], t[2], t[3], t[0]}
			for j := 0; j < 4; j++ {
				rot[j] = sbox(b, rot[j])
			}
			rot[0] = b.XorConst(rot[0], rcon[i/4-1])
			t = rot
		}
		for j := 0; j < 4; j++ {
			w[i][j] = b.XorVec(w[i-4][j], t[j])
		}
	}

	// State bytes in input order: s[r][c] lives at index r+4c.
	state := addRoundKey(b, pt, w[0:4])
	for round := 1; round <= 10; round++ {
		for i := range state {
			state[i] = sbox(b, state[i])
		}
		state = shiftRows(state)
		if round < 10 {
			state = mixColumns(b, state)
		}
		state = addRoundKey(b, state, w[4*round:4*round+4])
	}

	out := make([]int32, 0, 128)
	for i := range state {
		out = append(out, state[i]...)
	}
	c, err := b.Finish(out)
	if err != nil {
		return nil, err
	}
	if err := checkAES128(c); err != nil {
		return nil, err
	}
	return c, nil
}

// toBytes slices a BytesBits wire vector into LSB-first byte groups.
func toBytes(bits []int32) [][]int32 {
	out := make([][]int32, len(bits)/8)
	for i := range out {
		out[i] = bits[8*i : 8*i+8]
	}
	return out
}

func addRoundKey(b *Builder, state [][]int32, rk [][4][]int32) [][]int32 {
	out := make([][]int32, 16)
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			out[4*c+r] = b.XorVec(state[4*c+r], rk[c][r])
		}
	}
	return out
}

// shiftRows rotates row r left by r columns: s'[r][c] = s[r][(c+r)%4].
func shiftRows(state [][]int32) [][]int32 {
	out := make([][]int32, 16)
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			out[4*c+r] = state[4*((c+r)%4)+r]
		}
	}
	return out
}

func mixColumns(b *Builder, state [][]int32) [][]int32 {
	out := make([][]int32, 16)
	for c := 0; c < 4; c++ {
		var a, d, t [4][]int32
		for r := 0; r < 4; r++ {
			a[r] = state[4*c+r]
			d[r] = xtime(b, a[r])       // 2*a
			t[r] = b.XorVec(d[r], a[r]) // 3*a
		}
		out[4*c+0] = b.XorVec(b.XorVec(d[0], t[1]), b.XorVec(a[2], a[3]))
		out[4*c+1] = b.XorVec(b.XorVec(a[0], d[1]), b.XorVec(t[2], a[3]))
		out[4*c+2] = b.XorVec(b.XorVec(a[0], a[1]), b.XorVec(d[2], t[3]))
		out[4*c+3] = b.XorVec(b.XorVec(t[0], a[1]), b.XorVec(a[2], d[3]))
	}
	return out
}

// xtime multiplies by x in GF(2^8) mod 0x11B: shift left, folding the
// top bit into positions 0, 1, 3, 4 (the 0x1B taps). Free.
func xtime(b *Builder, a []int32) []int32 {
	return []int32{
		a[7],
		b.Xor(a[0], a[7]),
		a[1],
		b.Xor(a[2], a[7]),
		b.Xor(a[3], a[7]),
		a[4],
		a[5],
		a[6],
	}
}

// sbox is SubBytes on one byte: GF(2^8) inversion then the affine map.
func sbox(b *Builder, x []int32) []int32 {
	x2 := gfSq(b, x)
	x3 := gfMul(b, x2, x)
	x12 := gfSq(b, gfSq(b, x3))
	x15 := gfMul(b, x12, x3)
	x240 := gfSq(b, gfSq(b, gfSq(b, gfSq(b, x15))))
	x252 := gfMul(b, x240, x12)
	inv := gfMul(b, x252, x2) // x^254 = x^{-1} (and 0 -> 0)
	// Affine: out_i = inv_i ^ inv_{i+4} ^ inv_{i+5} ^ inv_{i+6} ^
	// inv_{i+7} (indices mod 8), then ^ 0x63.
	out := make([]int32, 8)
	for i := 0; i < 8; i++ {
		v := inv[i]
		for _, d := range [4]int{4, 5, 6, 7} {
			v = b.Xor(v, inv[(i+d)%8])
		}
		out[i] = v
	}
	return b.XorConst(out, 0x63)
}

// gfMul is schoolbook GF(2^8) multiplication mod 0x11B: 64 ANDs (all
// on one level) and a free reduction.
func gfMul(b *Builder, x, y []int32) []int32 {
	var t [15]int32
	for k := range t {
		t[k] = -1
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			t[i+j] = xorAcc(b, t[i+j], b.And(x[i], y[j]))
		}
	}
	return gfReduce(b, &t)
}

// gfSq squares in GF(2^8): squaring is linear over GF(2), so this is
// a wire permutation plus the reduction — no ANDs.
func gfSq(b *Builder, x []int32) []int32 {
	var t [15]int32
	for k := range t {
		t[k] = -1
	}
	for i := 0; i < 8; i++ {
		t[2*i] = x[i]
	}
	return gfReduce(b, &t)
}

// gfReduce folds degree-8..14 terms through x^8 = x^4+x^3+x+1,
// descending so cascaded folds (e.g. x^14 -> x^10 -> x^6) resolve.
// Slot -1 means the zero polynomial term.
func gfReduce(b *Builder, t *[15]int32) []int32 {
	for k := 14; k >= 8; k-- {
		if t[k] < 0 {
			continue
		}
		for _, d := range [4]int{k - 4, k - 5, k - 7, k - 8} {
			t[d] = xorAcc(b, t[d], t[k])
		}
		t[k] = -1
	}
	out := make([]int32, 8)
	for i := range out {
		if t[i] < 0 {
			out[i] = b.Const(0)
		} else {
			out[i] = t[i]
		}
	}
	return out
}

func xorAcc(b *Builder, acc, w int32) int32 {
	if acc < 0 {
		return w
	}
	return b.Xor(acc, w)
}

// checkAES128 cross-checks the netlist against crypto/aes on the
// FIPS-197 appendix C vector plus deterministic derived vectors.
func checkAES128(c *Circuit) error {
	var key, pt [16]byte
	for i := range key {
		key[i] = byte(i)
		pt[i] = byte(0x11 * i)
	}
	vecs := [][2][16]byte{{pt, key}}
	for v := 1; v < 4; v++ {
		for i := range key {
			key[i] = byte(31*v + 7*i + 3)
			pt[i] = byte(77*v + 13*i + 1)
		}
		vecs = append(vecs, [2][16]byte{pt, key})
	}
	for _, v := range vecs {
		blk, err := aes.NewCipher(v[1][:])
		if err != nil {
			return err
		}
		var want [16]byte
		blk.Encrypt(want[:], v[0][:])
		got, err := c.EvalPlain([][]bool{BytesBits(v[0][:]), BytesBits(v[1][:])})
		if err != nil {
			return fmt.Errorf("aes128 self-check: %w", err)
		}
		if !bytes.Equal(BitsBytes(got[0]), want[:]) {
			return fmt.Errorf("aes128 self-check: circuit disagrees with crypto/aes on key %x", v[1])
		}
	}
	return nil
}
