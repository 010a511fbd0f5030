package circuit_test

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"ironman/internal/circuit"
)

// fashionAdder is a 2-bit half-adder-ish circuit in the new "Bristol
// Fashion" dialect: 2 one-bit inputs, sum and carry outputs.
const fashionAdder = `2 4
2 1 1
2 1 1

2 1 0 1 2 XOR
2 1 0 1 3 AND
`

// legacyXor is the legacy "Bristol Format" dialect (header line 2 is
// "inA inB nout", gates start on line 3).
const legacyXor = `2 4
1 1 1

1 1 0 2 INV
2 1 2 1 3 XOR
`

func TestLoadBristolFashion(t *testing.T) {
	c, err := circuit.Load(strings.NewReader(fashionAdder))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.InputBits(); got != 2 {
		t.Fatalf("InputBits = %d, want 2", got)
	}
	if got := c.OutputBits(); got != 2 {
		t.Fatalf("OutputBits = %d, want 2", got)
	}
	out, err := c.EvalPlain([][]bool{{true}, {true}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != false || out[1][0] != true {
		t.Fatalf("1+1: sum=%v carry=%v", out[0][0], out[1][0])
	}
}

func TestLoadLegacyFormat(t *testing.T) {
	c, err := circuit.Load(strings.NewReader(legacyXor))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || c.Inputs[0] != 1 || c.Inputs[1] != 1 {
		t.Fatalf("Inputs = %v, want [1 1]", c.Inputs)
	}
	// out = NOT(a) XOR b
	for _, tc := range [][3]bool{{false, false, true}, {true, false, false}, {false, true, false}, {true, true, true}} {
		out, err := c.EvalPlain([][]bool{{tc[0]}, {tc[1]}})
		if err != nil {
			t.Fatal(err)
		}
		if out[0][0] != tc[2] {
			t.Fatalf("NOT(%v) XOR %v = %v, want %v", tc[0], tc[1], out[0][0], tc[2])
		}
	}
}

func TestLoadMAND(t *testing.T) {
	src := `1 6
2 2 2
1 2

4 2 0 1 2 3 4 5 MAND
`
	c, err := circuit.Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumANDs(); got != 2 {
		t.Fatalf("NumANDs = %d, want 2 (MAND counts its width)", got)
	}
	// out_j = in_j AND in_{k+j}: (1,0) MAND (1,1) -> (1, 0)
	out, err := c.EvalPlain([][]bool{{true, false}, {true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != true || out[0][1] != false {
		t.Fatalf("MAND wrong: %v", out[0])
	}
}

func TestLoadGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(fashionAdder)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := circuit.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gzip round trip lost gates: %d", len(c.Gates))
	}
}

// TestLoadErrors exercises the strict validator: every malformed input
// must fail, and structural errors must carry the offending 1-based
// line number.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring the error must contain
	}{
		{"empty", "", "empty input"},
		{"bad header fields", "2\n", "line 1"},
		{"bad gate count", "x 4\n2 1 1\n1 2\n", "line 1"},
		{"zero wires", "0 0\n1 1\n1 1\n", "at least one wire"},
		{"io decl too wide", "0 2\n2 1 1\n1 2\n", "exceed"},
		{"value decl mismatch", "2 4\n2 1\n2 1 1\n\n2 1 0 1 2 XOR\n2 1 0 1 3 AND\n", "line 2"},
		{"zero width value", "2 4\n2 1 0\n2 1 1\n\n2 1 0 1 2 XOR\n2 1 0 1 3 AND\n", "zero width"},
		{"unknown op", "1 3\n2 1 1\n1 1\n\n2 1 0 1 2 NAND\n", `unknown gate type "NAND"`},
		{"gate arity", "1 4\n2 1 1\n1 2\n\n3 1 0 1 1 2 XOR\n", "line 5"},
		{"operand count", "1 3\n2 1 1\n1 1\n\n2 1 0 2 XOR\n", "line 5"},
		{"mand arity", "1 5\n2 2 2\n1 1\n\n3 1 0 1 2 4 MAND\n", "MAND"},
		{"eq constant", "1 2\n1 1\n1 1\n\n1 1 2 1 EQ\n", "EQ constant"},
		{"wire out of range", "1 3\n2 1 1\n1 1\n\n2 1 0 9 2 XOR\n", "out of range"},
		{"use before def", "2 4\n2 1 1\n1 1\n\n2 1 0 3 2 XOR\n2 1 0 1 3 AND\n", "before it is defined"},
		{"double definition", "2 4\n2 1 1\n1 1\n\n2 1 0 1 2 XOR\n2 1 0 1 2 AND\n", "defined twice"},
		{"too many gates", "1 4\n2 1 1\n1 1\n\n2 1 0 1 2 XOR\n2 1 0 1 3 AND\n", "more gates than the declared"},
		{"too few gates", "3 5\n2 1 1\n1 1\n\n2 1 0 1 2 XOR\n2 1 0 1 3 AND\n", "declares 3 gates but 2 found"},
		{"dangling wire", "1 4\n2 1 1\n1 1\n\n2 1 0 1 3 XOR\n", "dangling wire 2"},
		// Header counts past the int32 wire range are refused on line 1;
		// counts inside it allocate nothing the gates do not back.
		{"huge wire count", "1 274877906944\n1 1\n1 1\n\n2 1 0 0 1 XOR\n", "line 1"},
		{"max wire count dangling", "1 2147483647\n1 1\n1 1\n\n2 1 0 0 2147483646 XOR\n", "dangling wire 1"},
		{"max gate count", "2147483647 3\n1 2\n1 1\n\n2 1 0 1 2 XOR\n", "declares 2147483647 gates but 1 found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := circuit.Load(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBitHelpers(t *testing.T) {
	if v := circuit.BitsUint64(circuit.Uint64Bits(0xdeadbeef, 64)); v != 0xdeadbeef {
		t.Fatalf("Uint64Bits round trip: %x", v)
	}
	p := []byte{0x01, 0x80, 0xff, 0x00}
	if got := circuit.BitsBytes(circuit.BytesBits(p)); !bytes.Equal(got, p) {
		t.Fatalf("BytesBits round trip: %x", got)
	}
}
