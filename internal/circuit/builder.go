package circuit

import "fmt"

// Builder is a small netlist DSL for constructing circuits
// programmatically — the source of the AES-128 circuit. Wires are
// int32 handles; Input declares input values (before any gate), the
// gate methods emit gates, and Finish relabels the chosen output wires
// into the trailing positions the wire layout requires.
//
// The gate methods (Xor, And, Not, Const) cost what they say on the
// tin under GMW: only And consumes OTs. XorVec and XorConst are their
// free per-bit vector forms.
type Builder struct {
	gates  []Gate
	inputs []int
	nwires int32
	consts [2]int32 // cached EQ wires; -1 until first use
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{consts: [2]int32{-1, -1}}
}

// Input declares the next input value and returns its wires. All
// inputs must be declared before the first gate (input wires are
// numbered first).
func (b *Builder) Input(width int) []int32 {
	if len(b.gates) > 0 {
		panic("circuit: Builder.Input after first gate")
	}
	if width <= 0 {
		panic("circuit: Builder.Input needs positive width")
	}
	b.inputs = append(b.inputs, width)
	w := make([]int32, width)
	for i := range w {
		w[i] = b.wire()
	}
	return w
}

func (b *Builder) wire() int32 {
	w := b.nwires
	b.nwires++
	return w
}

func (b *Builder) emit(op Op, in []int32, nout int) []int32 {
	out := make([]int32, nout)
	for i := range out {
		out[i] = b.wire()
	}
	b.gates = append(b.gates, Gate{Op: op, In: in, Out: out})
	return out
}

// Xor emits x XOR y.
func (b *Builder) Xor(x, y int32) int32 { return b.emit(XOR, []int32{x, y}, 1)[0] }

// And emits x AND y.
func (b *Builder) And(x, y int32) int32 { return b.emit(AND, []int32{x, y}, 1)[0] }

// Not emits NOT x.
func (b *Builder) Not(x int32) int32 { return b.emit(INV, []int32{x}, 1)[0] }

// Const returns a wire carrying the constant bit (cached per value).
func (b *Builder) Const(bit int) int32 {
	if bit != 0 && bit != 1 {
		panic("circuit: Builder.Const needs 0 or 1")
	}
	if b.consts[bit] < 0 {
		b.consts[bit] = b.emit(EQ, []int32{int32(bit)}, 1)[0]
	}
	return b.consts[bit]
}

// XorVec emits the per-bit XOR of equal-width vectors.
func (b *Builder) XorVec(x, y []int32) []int32 {
	out := make([]int32, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// XorConst flips the bits of x selected by the constant c (free:
// NOT gates on set bits).
func (b *Builder) XorConst(x []int32, c uint64) []int32 {
	out := make([]int32, len(x))
	for i := range x {
		if c>>uint(i)&1 == 1 {
			out[i] = b.Not(x[i])
		} else {
			out[i] = x[i]
		}
	}
	return out
}

// Finish closes the builder: each value in outs becomes one declared
// output, relabeled (via free EQW copies) into the trailing wire
// positions. The builder must not be reused after.
func (b *Builder) Finish(outs ...[]int32) (*Circuit, error) {
	if len(b.inputs) == 0 {
		return nil, fmt.Errorf("circuit: Builder.Finish: no inputs declared")
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("circuit: Builder.Finish: no outputs")
	}
	c := &Circuit{Inputs: append([]int(nil), b.inputs...)}
	for _, o := range outs {
		if len(o) == 0 {
			return nil, fmt.Errorf("circuit: Builder.Finish: empty output value")
		}
		c.Outputs = append(c.Outputs, len(o))
		for _, w := range o {
			if w < 0 || w >= b.nwires {
				return nil, fmt.Errorf("circuit: Builder.Finish: output wire %d out of range", w)
			}
			b.emit(EQW, []int32{w}, 1)
		}
	}
	c.Gates = b.gates
	c.Wires = int(b.nwires)
	b.gates = nil
	return c, nil
}
