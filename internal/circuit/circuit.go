// Package circuit is the circuit frontend of the GMW engine: it builds
// Boolean circuits in the Bristol-fashion gate model (XOR, AND, INV, EQ
// and EQW over numbered wires, inputs first and outputs last), levels
// the gate DAG so every AND level becomes ONE batched OT exchange, and
// evaluates K independent instances of the same circuit SIMD-packed
// across the word lanes of the engine's bitsliced shares. Its one
// built-in circuit is AES-128; others come from NewBuilder.
//
// The pipeline is a circuit -> Compile -> Eval:
//
//	prog, _ := circuit.Compile(circuit.AES128())
//	out, _ := prog.Eval(party, inputs, nil) // inputs: one K-bit plane per input wire
//
// XOR/INV/EQ/EQW gates are local (free); AND gates consume chosen OTs
// through gmw.AndPackedMany, with all AND gates of equal circuit depth
// batched into a single two-flight exchange. Evaluating K instances at
// once multiplies every exchange's payload by K but leaves the
// exchange (network round) count unchanged — the amortization that
// makes OT-hungry Boolean workloads (the nonlinear layers of the
// Ironman paper's PPML scenarios) cheap per instance.
package circuit

import "fmt"

// Op is a gate type of the Bristol-fashion gate model.
type Op uint8

const (
	// XOR is the free 2-input XOR gate.
	XOR Op = iota
	// AND is the 2-input AND gate (2 chosen OTs under GMW).
	AND
	// INV is the 1-input NOT gate (free).
	INV
	// EQ assigns a constant bit: its "input" operand is the literal 0
	// or 1, not a wire.
	EQ
	// EQW copies a wire (free).
	EQW
)

// String returns the gate keyword of the op.
func (op Op) String() string {
	switch op {
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	case INV:
		return "INV"
	case EQ:
		return "EQ"
	case EQW:
		return "EQW"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Gate is one gate of a Circuit. In holds input wire indices, except
// for EQ, where In[0] is the constant bit value (0 or 1).
type Gate struct {
	Op  Op
	In  []int32
	Out []int32
}

// Circuit is a Boolean circuit in the Bristol-fashion layout. Wires are
// numbered 0..Wires-1: the first sum(Inputs) wires are the circuit
// inputs in declaration order, the last sum(Outputs) wires are the
// outputs, and Gates is in topological order (every gate reads only
// inputs and earlier gates' outputs).
type Circuit struct {
	Gates   []Gate
	Wires   int
	Inputs  []int // bits per input value, in wire order
	Outputs []int // bits per output value, in wire order
}

// InputBits returns the total input wire count.
func (c *Circuit) InputBits() int { return sum(c.Inputs) }

// OutputBits returns the total output wire count.
func (c *Circuit) OutputBits() int { return sum(c.Outputs) }

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

// NumANDs counts the AND gates — the circuit's total OT-consuming gate
// count per evaluated instance.
func (c *Circuit) NumANDs() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Op == AND {
			n++
		}
	}
	return n
}

// outputBase returns the wire index of the first output wire.
func (c *Circuit) outputBase() int { return c.Wires - c.OutputBits() }

// EvalPlain evaluates the circuit in the clear: inputs holds one
// LSB-first bit vector per declared input value, and the result is one
// bit vector per declared output value. This is the reference
// implementation the secure evaluator is cross-checked against.
func (c *Circuit) EvalPlain(inputs [][]bool) ([][]bool, error) {
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("circuit: EvalPlain needs %d input values, got %d", len(c.Inputs), len(inputs))
	}
	wires := make([]bool, c.Wires)
	w := 0
	for i, in := range inputs {
		if len(in) != c.Inputs[i] {
			return nil, fmt.Errorf("circuit: EvalPlain input %d needs %d bits, got %d", i, c.Inputs[i], len(in))
		}
		copy(wires[w:], in)
		w += len(in)
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		switch g.Op {
		case XOR:
			wires[g.Out[0]] = wires[g.In[0]] != wires[g.In[1]]
		case AND:
			wires[g.Out[0]] = wires[g.In[0]] && wires[g.In[1]]
		case INV:
			wires[g.Out[0]] = !wires[g.In[0]]
		case EQ:
			wires[g.Out[0]] = g.In[0] == 1
		case EQW:
			wires[g.Out[0]] = wires[g.In[0]]
		default:
			return nil, fmt.Errorf("circuit: EvalPlain: unknown op %v", g.Op)
		}
	}
	out := make([][]bool, len(c.Outputs))
	w = c.outputBase()
	for i, n := range c.Outputs {
		out[i] = make([]bool, n)
		copy(out[i], wires[w:w+n])
		w += n
	}
	return out, nil
}

// BytesBits returns the LSB-first-per-byte bit decomposition of a byte
// string: bit j of byte i lands at index 8i+j. This is the layout the
// AES128 circuit uses for plaintext, key, and ciphertext.
func BytesBits(p []byte) []bool {
	bits := make([]bool, 8*len(p))
	for i, by := range p {
		for j := 0; j < 8; j++ {
			bits[8*i+j] = by>>uint(j)&1 == 1
		}
	}
	return bits
}

// BitsBytes recomposes BytesBits output into a byte string.
func BitsBytes(bits []bool) []byte {
	p := make([]byte, len(bits)/8)
	for i := range p {
		for j := 0; j < 8; j++ {
			if bits[8*i+j] {
				p[i] |= 1 << uint(j)
			}
		}
	}
	return p
}
