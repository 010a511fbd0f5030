package circuit

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// load parses a Bristol circuit from r. Both header dialects are
// accepted:
//
//	"Bristol Fashion" (new):        "Bristol Format" (legacy):
//	  ngates nwires                   ngates nwires
//	  niv s_1 ... s_niv               inA inB nout
//	  nov t_1 ... t_nov               <gates>
//	  <blank>
//	  <gates>
//
// Gate lines are "nin nout in... out... OP" with OP one of XOR, AND,
// INV (NOT accepted as an alias), EQ, EQW, MAND. Gzip-compressed input
// is detected by magic bytes and decompressed transparently.
//
// Validation is strict and every error carries the 1-based line
// number: wires must be in range, defined exactly once, and defined
// before use (so Gates is topologically ordered on return); the gate
// count must match the header; and every wire — in particular every
// output wire — must be driven by an input or a gate (no dangling
// wires). Declared counts past the int32 wire-handle range are
// rejected, and memory grows with the gates read, not with the
// header's claims.
func load(r io.Reader) (*Circuit, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("circuit: gzip header: %w", err)
		}
		defer zr.Close()
		return parse(bufio.NewReaderSize(zr, 1<<16))
	}
	return parse(br)
}

// lineScanner yields non-blank lines with their 1-based line numbers.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func (s *lineScanner) next() (fields []string, line int, ok bool) {
	for s.sc.Scan() {
		s.line++
		f := strings.Fields(s.sc.Text())
		if len(f) > 0 {
			return f, s.line, true
		}
	}
	return nil, s.line, false
}

// maxCount bounds every count a netlist declares — gates, wires,
// values, widths, operands. Wires are int32 handles, so no circuit
// past it is representable, and a header is rejected on its own line
// before anything is allocated from it.
const maxCount = math.MaxInt32

func parseCount(tok, what string, line int) (int, error) {
	v, err := strconv.Atoi(tok)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("circuit: line %d: bad %s %q", line, what, tok)
	}
	if v > maxCount {
		return 0, fmt.Errorf("circuit: line %d: %s %d exceeds the limit %d", line, what, v, maxCount)
	}
	return v, nil
}

func parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	ls := &lineScanner{sc: sc}

	// Header line 1: gate and wire counts.
	f1, l1, ok := ls.next()
	if !ok {
		return nil, fmt.Errorf("circuit: line %d: empty input", ls.line+1)
	}
	if len(f1) != 2 {
		return nil, fmt.Errorf("circuit: line %d: header needs \"ngates nwires\", got %d fields", l1, len(f1))
	}
	ngates, err := parseCount(f1[0], "gate count", l1)
	if err != nil {
		return nil, err
	}
	nwires, err := parseCount(f1[1], "wire count", l1)
	if err != nil {
		return nil, err
	}
	if nwires == 0 {
		return nil, fmt.Errorf("circuit: line %d: circuit must have at least one wire", l1)
	}

	f2, l2, ok := ls.next()
	if !ok {
		return nil, fmt.Errorf("circuit: line %d: missing input declaration", ls.line+1)
	}
	f3, l3, ok := ls.next()
	if !ok {
		return nil, fmt.Errorf("circuit: line %d: missing output declaration", ls.line+1)
	}

	c := &Circuit{Wires: nwires}
	var gateFields []string
	var gateLine int
	haveGate := false

	// Dialect split: in the legacy format the third non-blank line is
	// already a gate (its last field is an op keyword); in Bristol
	// Fashion it is the output declaration (all integers).
	if isOpKeyword(f3[len(f3)-1]) {
		// Legacy "Bristol Format": line 2 is "inA inB nout".
		if len(f2) != 3 {
			return nil, fmt.Errorf("circuit: line %d: legacy header needs \"inA inB nout\", got %d fields", l2, len(f2))
		}
		inA, err := parseCount(f2[0], "input-A width", l2)
		if err != nil {
			return nil, err
		}
		inB, err := parseCount(f2[1], "input-B width", l2)
		if err != nil {
			return nil, err
		}
		nout, err := parseCount(f2[2], "output width", l2)
		if err != nil {
			return nil, err
		}
		c.Inputs = []int{inA, inB}
		if inB == 0 {
			c.Inputs = []int{inA}
		}
		c.Outputs = []int{nout}
		gateFields, gateLine, haveGate = f3, l3, true
	} else {
		// Bristol Fashion: lines 2 and 3 declare the input and output
		// value widths.
		c.Inputs, err = parseValueDecl(f2, "input", l2)
		if err != nil {
			return nil, err
		}
		c.Outputs, err = parseValueDecl(f3, "output", l3)
		if err != nil {
			return nil, err
		}
	}

	inBits := c.InputBits()
	outBits := c.OutputBits()
	if inBits+outBits > nwires {
		return nil, fmt.Errorf("circuit: line %d: %d input + %d output wires exceed %d total wires", l2, inBits, outBits, nwires)
	}

	// Nothing below is sized by the header's counts: the gates and
	// their line numbers grow with the gate lines actually read, and
	// checkDefinitions sizes its tracking by the outputs those gates
	// drive.
	var lines []int // 1-based source line of each gate
	driven := 0     // gate output wires read
	for {
		if !haveGate {
			gateFields, gateLine, haveGate = ls.next()
			if !haveGate {
				break
			}
		}
		g, err := parseGate(gateFields, gateLine, nwires)
		if err != nil {
			return nil, err
		}
		c.Gates = append(c.Gates, g)
		lines = append(lines, gateLine)
		driven += len(g.Out)
		haveGate = false
		if len(c.Gates) > ngates {
			return nil, fmt.Errorf("circuit: line %d: more gates than the declared %d", gateLine, ngates)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("circuit: read: %w", err)
	}
	if len(c.Gates) != ngates {
		return nil, fmt.Errorf("circuit: line %d: header declares %d gates but %d found", ls.line, ngates, len(c.Gates))
	}
	if err := checkDefinitions(c.Gates, lines, inBits, nwires, driven); err != nil {
		return nil, err
	}
	return c, nil
}

// checkDefinitions enforces that every wire is defined exactly once
// and before it is used, and that none dangles. Input wires are
// defined from the start, so only the nwires-inBits wires gates must
// drive are tracked, and only once the gates drive at least that many
// outputs; with fewer, one of the first driven+1 gate wires is never
// driven and is reported as dangling.
func checkDefinitions(gates []Gate, lines []int, inBits, nwires, driven int) error {
	if driven < nwires-inBits {
		hit := make([]bool, driven+1)
		for _, g := range gates {
			for _, w := range g.Out {
				if i := int(w) - inBits; i >= 0 && i <= driven {
					hit[i] = true
				}
			}
		}
		return fmt.Errorf("circuit: dangling wire %d: never driven by an input or gate output", inBits+slices.Index(hit, false))
	}
	// At least as many outputs as gate wires: once no wire is defined
	// twice, every one of them is driven.
	defined := make([]bool, nwires-inBits)
	isDefined := func(w int32) bool { return int(w) < inBits || defined[int(w)-inBits] }
	for gi, g := range gates {
		if g.Op != EQ {
			for _, w := range g.In {
				if !isDefined(w) {
					return fmt.Errorf("circuit: line %d: wire %d used before it is defined (gates out of order?)", lines[gi], w)
				}
			}
		}
		for _, w := range g.Out {
			if isDefined(w) {
				return fmt.Errorf("circuit: line %d: wire %d defined twice", lines[gi], w)
			}
			defined[int(w)-inBits] = true
		}
	}
	return nil
}

func parseValueDecl(f []string, what string, line int) ([]int, error) {
	n, err := parseCount(f[0], what+" value count", line)
	if err != nil {
		return nil, err
	}
	if len(f) != n+1 {
		return nil, fmt.Errorf("circuit: line %d: %s declaration names %d values but has %d widths", line, what, n, len(f)-1)
	}
	if n == 0 {
		return nil, fmt.Errorf("circuit: line %d: circuit needs at least one %s value", line, what)
	}
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		w, err := parseCount(f[i+1], what+" width", line)
		if err != nil {
			return nil, err
		}
		if w == 0 {
			return nil, fmt.Errorf("circuit: line %d: %s value %d has zero width", line, what, i)
		}
		sizes[i] = w
	}
	return sizes, nil
}

func isOpKeyword(tok string) bool {
	switch tok {
	case "XOR", "AND", "INV", "NOT", "EQ", "EQW", "MAND":
		return true
	}
	return false
}

// gateShape returns the op and its required input arity for a fixed-
// arity gate; MAND (variable arity) is handled by the caller.
func opFor(tok string) (Op, bool) {
	switch tok {
	case "XOR":
		return XOR, true
	case "AND":
		return AND, true
	case "INV", "NOT":
		return INV, true
	case "EQ":
		return EQ, true
	case "EQW":
		return EQW, true
	case "MAND":
		return MAND, true
	}
	return 0, false
}

func parseGate(f []string, line, nwires int) (Gate, error) {
	opTok := f[len(f)-1]
	op, ok := opFor(opTok)
	if !ok {
		return Gate{}, fmt.Errorf("circuit: line %d: unknown gate type %q", line, opTok)
	}
	if len(f) < 3 {
		return Gate{}, fmt.Errorf("circuit: line %d: truncated gate line", line)
	}
	nin, err := parseCount(f[0], "gate input count", line)
	if err != nil {
		return Gate{}, err
	}
	nout, err := parseCount(f[1], "gate output count", line)
	if err != nil {
		return Gate{}, err
	}
	if len(f) != 2+nin+nout+1 {
		return Gate{}, fmt.Errorf("circuit: line %d: %s gate declares %d inputs and %d outputs but line has %d operands",
			line, opTok, nin, nout, len(f)-3)
	}
	switch op {
	case XOR, AND:
		if nin != 2 || nout != 1 {
			return Gate{}, fmt.Errorf("circuit: line %d: %s gate needs 2 inputs and 1 output, got %d/%d", line, opTok, nin, nout)
		}
	case INV, EQ, EQW:
		if nin != 1 || nout != 1 {
			return Gate{}, fmt.Errorf("circuit: line %d: %s gate needs 1 input and 1 output, got %d/%d", line, opTok, nin, nout)
		}
	case MAND:
		if nout == 0 || nin != 2*nout {
			return Gate{}, fmt.Errorf("circuit: line %d: MAND gate needs 2k inputs and k>0 outputs, got %d/%d", line, nin, nout)
		}
	}
	g := Gate{Op: op, In: make([]int32, nin), Out: make([]int32, nout)}
	for i := 0; i < nin; i++ {
		v, err := strconv.Atoi(f[2+i])
		if err != nil {
			return Gate{}, fmt.Errorf("circuit: line %d: bad input operand %q", line, f[2+i])
		}
		if op == EQ {
			if v != 0 && v != 1 {
				return Gate{}, fmt.Errorf("circuit: line %d: EQ constant must be 0 or 1, got %d", line, v)
			}
		} else {
			if v < 0 || v >= nwires {
				return Gate{}, fmt.Errorf("circuit: line %d: input wire %d out of range [0,%d)", line, v, nwires)
			}
		}
		g.In[i] = int32(v)
	}
	for i := 0; i < nout; i++ {
		v, err := strconv.Atoi(f[2+nin+i])
		if err != nil {
			return Gate{}, fmt.Errorf("circuit: line %d: bad output operand %q", line, f[2+nin+i])
		}
		if v < 0 || v >= nwires {
			return Gate{}, fmt.Errorf("circuit: line %d: output wire %d out of range [0,%d)", line, v, nwires)
		}
		g.Out[i] = int32(v)
	}
	return g, nil
}
