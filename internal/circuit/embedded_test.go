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

// TestReferenceCircuitGolden pins the AES-128 circuit's netlist and
// compiled level schedule to a recorded digest: a builder change that
// moves a single gate, wire or level shows up here, before it can
// change any transcript or wire byte downstream.
func TestReferenceCircuitGolden(t *testing.T) {
	t.Run("aes128", func(t *testing.T) {
		const want = "d0d498de975985c7c2eb980913c9e6db4fb10186067f99bb7bb52ddcd8e439e3"
		if got := circuitDigest(t, circuit.AES128()); got != want {
			t.Fatalf("aes128 digest %s, want %s", got, want)
		}
	})
}
