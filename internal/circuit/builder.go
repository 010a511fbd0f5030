package circuit

import "fmt"

// Builder is a small netlist DSL for constructing Bristol circuits
// programmatically — the one source of the reference circuits.
// Wires are int32 handles; Input declares input values (before any
// gate), the gate methods emit gates, and Finish relabels the chosen
// output wires into the trailing positions Bristol requires.
//
// Gate-level methods (Xor, And, Not, Const) cost what they say on the
// tin under GMW: only And consumes OTs. The word-level helpers build
// depth-optimized arithmetic: Add/Sub are Sklansky parallel-prefix
// adders (O(log n) AND depth), SumMany reduces k addends through a
// carry-save tree (1 AND level per CSA) before a single prefix add.
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
// inputs must be declared before the first gate (Bristol numbers input
// wires first).
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

// Or emits x OR y (one AND: x|y = (x^y)^(x&y)).
func (b *Builder) Or(x, y int32) int32 {
	return b.Xor(b.Xor(x, y), b.And(x, y))
}

// Mux emits sel ? x : y per bit vector (one AND per bit).
func (b *Builder) Mux(sel int32, x, y []int32) []int32 {
	out := make([]int32, len(x))
	for i := range x {
		out[i] = b.Xor(y[i], b.And(sel, b.Xor(x[i], y[i])))
	}
	return out
}

// XorVec emits the per-bit XOR of equal-width vectors.
func (b *Builder) XorVec(x, y []int32) []int32 {
	out := make([]int32, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// NotVec emits the per-bit NOT of a vector.
func (b *Builder) NotVec(x []int32) []int32 {
	out := make([]int32, len(x))
	for i := range x {
		out[i] = b.Not(x[i])
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

// ConstVec returns width wires carrying the constant value (LSB-first).
func (b *Builder) ConstVec(v uint64, width int) []int32 {
	out := make([]int32, width)
	for i := range out {
		out[i] = b.Const(int(v >> uint(i) & 1))
	}
	return out
}

// Add emits x + y mod 2^n via a Sklansky parallel-prefix adder:
// n + n/2*log2(n) ANDs and change, log2(n)+1 AND levels.
func (b *Builder) Add(x, y []int32) []int32 {
	s, _ := b.AddCarry(x, y, false, false)
	return s
}

// Sub emits x - y mod 2^n plus a no-borrow flag (1 iff x >= y),
// computed as x + ^y + 1 with the carry-in folded into bit 0.
func (b *Builder) Sub(x, y []int32) (diff []int32, noBorrow int32) {
	return b.AddCarry(x, y, true, true)
}

// AddCarry is the general prefix adder: sum = x + (invertY ? ^y : y)
// + cin mod 2^n, plus the carry out of the top bit. The NOT gates and
// the folded carry-in are free; only the generate/propagate network
// costs ANDs.
func (b *Builder) AddCarry(x, y []int32, invertY, cin bool) (sum []int32, carry int32) {
	n := len(x)
	if n == 0 || len(y) != n {
		panic(fmt.Sprintf("circuit: Builder.AddCarry width mismatch %d vs %d", n, len(y)))
	}
	yy := y
	if invertY {
		yy = b.NotVec(y)
	}
	// Generate/propagate per bit, with the carry-in folded into slot 0:
	// G0' = x0|y0 = G0^P0 when cin=1.
	p := make([]int32, n)
	g := make([]int32, n)
	for i := 0; i < n; i++ {
		p[i] = b.Xor(x[i], yy[i])
		g[i] = b.And(x[i], yy[i])
	}
	sum = make([]int32, n)
	if cin {
		sum[0] = b.Not(p[0])
		g[0] = b.Xor(g[0], p[0])
	} else {
		sum[0] = p[0]
	}
	// Sklansky prefix: after level lvl, every node whose highest set
	// bit is <= lvl holds the complete prefix [0..i]. The P update is
	// skipped once no later level reads the node (i < 2^(lvl+1)).
	origP := append([]int32(nil), p...)
	for lvl := 0; 1<<uint(lvl) < n; lvl++ {
		for i := 0; i < n; i++ {
			if i>>uint(lvl)&1 == 1 {
				j := int32(i)>>uint(lvl)<<uint(lvl) - 1
				g[i] = b.Xor(g[i], b.And(p[i], g[j]))
				if i>>uint(lvl+1) != 0 {
					p[i] = b.And(p[i], p[j])
				}
			}
		}
	}
	for i := 1; i < n; i++ {
		sum[i] = b.Xor(origP[i], g[i-1])
	}
	return sum, g[n-1]
}

// SumMany adds k equal-width addends mod 2^n: a carry-save tree (each
// 3->2 step is one AND level) reduces to two addends, then one prefix
// add finishes. Depth is O(log k + log n) instead of k prefix adds.
func (b *Builder) SumMany(vs ...[]int32) []int32 {
	switch len(vs) {
	case 0:
		panic("circuit: Builder.SumMany needs at least one addend")
	case 1:
		return vs[0]
	}
	pend := append([][]int32(nil), vs...)
	for len(pend) > 2 {
		var next [][]int32
		for len(pend) >= 3 {
			s, c := b.csa(pend[0], pend[1], pend[2])
			pend = pend[3:]
			next = append(next, s, c)
		}
		pend = append(next, pend...)
	}
	return b.Add(pend[0], pend[1])
}

// csa is a carry-save adder: sum_i = a^b^c (free), carry_{i+1} =
// maj(a,b,c)_i (one AND per bit), with the shifted-out top carry
// dropped (mod 2^n arithmetic).
func (b *Builder) csa(x, y, z []int32) (sum, carry []int32) {
	n := len(x)
	sum = make([]int32, n)
	carry = make([]int32, n)
	carry[0] = b.Const(0)
	for i := 0; i < n; i++ {
		xy := b.Xor(x[i], y[i])
		sum[i] = b.Xor(xy, z[i])
		if i+1 < n {
			// maj(a,b,c) = b ^ ((a^b) & (c^b))
			carry[i+1] = b.Xor(y[i], b.And(xy, b.Xor(z[i], y[i])))
		}
	}
	return sum, carry
}

// Finish closes the builder: each value in outs becomes one declared
// output, relabeled (via free EQW copies) into the trailing wire
// positions Bristol requires. The builder must not be reused after.
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
