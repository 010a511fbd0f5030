package circuit_test

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ironman/internal/circuit"
)

// TestEmbeddedAES128TCP is the acceptance run for the reference AES-128
// circuit: two SIMD-packed blocks over real TCP, instance 0 the
// FIPS-197 appendix C vector, every exchange counted against the AND
// depth. Party A owns the plaintext, party B the key.
func TestEmbeddedAES128TCP(t *testing.T) {
	c := circuit.AES128()
	prog, err := circuit.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ANDs != 51200 || prog.ANDLevels != 40 {
		t.Fatalf("aes128 compiled to %d ANDs at depth %d, want 51200 at 40", prog.ANDs, prog.ANDLevels)
	}

	var fipsKey, fipsPT [16]byte
	for i := range fipsKey {
		fipsKey[i] = byte(i)
		fipsPT[i] = byte(0x11 * i)
	}
	var key2, pt2 [16]byte
	for i := range key2 {
		key2[i] = byte(0xf0 - i)
		pt2[i] = byte(7 * i)
	}
	insts := [][][]bool{
		{circuit.BytesBits(fipsPT[:]), circuit.BytesBits(fipsKey[:])},
		{circuit.BytesBits(pt2[:]), circuit.BytesBits(key2[:])},
	}

	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*len(insts))
	outs, ex, _ := secureEval(t, prog, a, b, connA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	if ex != prog.ANDLevels {
		t.Fatalf("%d exchanges, want AND depth %d", ex, prog.ANDLevels)
	}

	wantFIPS, err := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.BitsBytes(outs[0]); !bytes.Equal(got, wantFIPS) {
		t.Fatalf("FIPS-197 vector: ciphertext %x, want %x", got, wantFIPS)
	}
	blk, err := aes.NewCipher(key2[:])
	if err != nil {
		t.Fatal(err)
	}
	var want2 [16]byte
	blk.Encrypt(want2[:], pt2[:])
	if got := circuit.BitsBytes(outs[1]); !bytes.Equal(got, want2[:]) {
		t.Fatalf("instance 1: ciphertext %x, want %x", got, want2)
	}
}

// shaIV is the standard initial chaining value in digest encoding.
func shaIV() [32]byte {
	var iv [32]byte
	for i, h := range [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	} {
		binary.BigEndian.PutUint32(iv[4*i:], h)
	}
	return iv
}

// shaPad pads a sub-55-byte message into its single SHA-256 block.
func shaPad(msg []byte) [64]byte {
	var blk [64]byte
	copy(blk[:], msg)
	blk[len(msg)] = 0x80
	binary.BigEndian.PutUint64(blk[56:], uint64(len(msg))*8)
	return blk
}

// TestEmbeddedSHA256TCP hashes two messages in one packed evaluation
// over real TCP and checks the digests against crypto/sha256. Party A
// owns the message blocks, party B the (public, but shared as B's
// input) chaining value.
func TestEmbeddedSHA256TCP(t *testing.T) {
	c := circuit.Reference("sha256")
	prog, err := circuit.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("abc"), []byte("The quick brown fox jumps over the lazy dog")}
	iv := shaIV()
	insts := make([][][]bool, len(msgs))
	for i, m := range msgs {
		blk := shaPad(m)
		insts[i] = [][]bool{circuit.BytesBits(blk[:]), circuit.BytesBits(iv[:])}
	}

	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*len(insts))
	outs, ex, _ := secureEval(t, prog, a, b, connA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	if ex != prog.ANDLevels {
		t.Fatalf("%d exchanges, want AND depth %d", ex, prog.ANDLevels)
	}
	for i, m := range msgs {
		want := sha256.Sum256(m)
		if got := circuit.BitsBytes(outs[i]); !bytes.Equal(got, want[:]) {
			t.Fatalf("message %q: digest %x, want %x", m, got, want)
		}
	}
}

// TestEmbeddedDivide64TCP exercises the deepest reference schedule
// (513 AND levels) over real TCP, including the division-by-zero
// convention.
func TestEmbeddedDivide64TCP(t *testing.T) {
	c := circuit.Reference("div64")
	prog, err := circuit.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][2]uint64{{0xdeadbeefcafebabe, 0x1337}, {7, 0}}
	insts := make([][][]bool, len(vecs))
	for i, v := range vecs {
		insts[i] = [][]bool{circuit.Uint64Bits(v[0], 64), circuit.Uint64Bits(v[1], 64)}
	}

	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*len(insts))
	outs, ex, _ := secureEval(t, prog, a, b, connA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	if ex != prog.ANDLevels {
		t.Fatalf("%d exchanges, want AND depth %d", ex, prog.ANDLevels)
	}
	for i, v := range vecs {
		x, d := v[0], v[1]
		wantQ, wantR := ^uint64(0), x
		if d != 0 {
			wantQ, wantR = x/d, x%d
		}
		gotQ := circuit.BitsUint64(outs[i][:64])
		gotR := circuit.BitsUint64(outs[i][64:])
		if gotQ != wantQ || gotR != wantR {
			t.Fatalf("%d/%d: got q=%d r=%d, want q=%d r=%d", x, d, gotQ, gotR, wantQ, wantR)
		}
	}
}

// circuitDigest is a SHA-256 over a canonical little-endian encoding
// of the netlist (wire count, input and output widths, every gate's op
// and operands) and of its compiled schedule's shape (slot count and
// each level's local-op and AND-batch widths).
func circuitDigest(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	prog, err := circuit.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	ints := func(vs []int) {
		put(len(vs))
		put(vs...)
	}
	wires := func(vs []int32) {
		put(len(vs))
		binary.Write(h, binary.LittleEndian, vs)
	}
	put(c.Wires)
	ints(c.Inputs)
	ints(c.Outputs)
	put(len(c.Gates))
	for _, g := range c.Gates {
		put(int(g.Op))
		wires(g.In)
		wires(g.Out)
	}
	put(prog.Slots, len(prog.Levels))
	for _, lv := range prog.Levels {
		put(len(lv.Pre), len(lv.AndA))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReferenceCircuitGolden pins each reference circuit's netlist and
// compiled level schedule to a recorded digest: a builder change that
// moves a single gate, wire or level shows up here, before it can
// change any transcript or wire byte downstream.
func TestReferenceCircuitGolden(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"aes128", "d0d498de975985c7c2eb980913c9e6db4fb10186067f99bb7bb52ddcd8e439e3"},
		{"sha256", "7d376a84e6dfd23530e899adf8e4cc2cc6ad65138fe949006d03991bff60aeb3"},
		{"div64", "7820a9e78899b888c0d0fff76d248d1ea710532f2d0d2741afd39bf97a7ab513"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := circuitDigest(t, circuit.Reference(tc.name)); got != tc.want {
				t.Fatalf("%s digest %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}
