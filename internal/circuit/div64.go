package circuit

import "fmt"

// buildDivide64 constructs the 64-bit unsigned division circuit:
// inputs (dividend, divisor), outputs (quotient, remainder), all
// LSB-first (Uint64Bits layout).
//
// Restoring division, 64 iterations: the remainder register R keeps
// the invariant R < divisor, so R stays 64 bits wide and the shifted
// value 2R+b fits 65 bits with the overflow tracked as R's old top
// bit. Each iteration does one prefix subtraction (carry-out = "no
// borrow"), one OR folding the overflow bit into the quotient
// decision, and one 64-bit mux restoring R — about 450 ANDs and 9 AND
// levels, for ~29k ANDs at AND depth ~576 overall.
//
// Division by zero follows the hardware convention the comparison
// chain produces naturally: quotient all-ones, remainder = dividend.
//
// The circuit is self-checked against native division before it is
// returned.
func buildDivide64() (*Circuit, error) {
	b := NewBuilder()
	x := b.Input(64) // dividend
	d := b.Input(64) // divisor

	r := make([]int32, 64)
	zero := b.Const(0)
	for i := range r {
		r[i] = zero
	}
	q := make([]int32, 64)
	for i := 63; i >= 0; i-- {
		// rsh = (R << 1) | x_i, low 64 bits; `top` is the shifted-out
		// bit. top=1 means 2R+b >= 2^64 > divisor, so the subtraction
		// is taken regardless of its borrow (and its mod-2^64 result is
		// exactly the true difference, since R < divisor bounds 2R+b
		// below 2*divisor).
		top := r[63]
		rsh := make([]int32, 64)
		rsh[0] = x[i]
		copy(rsh[1:], r[:63])
		diff, noBorrow := b.Sub(rsh, d)
		q[i] = b.Or(top, noBorrow)
		r = b.Mux(q[i], diff, rsh)
	}

	c, err := b.Finish(q, r)
	if err != nil {
		return nil, err
	}
	if err := checkDivide64(c); err != nil {
		return nil, err
	}
	return c, nil
}

func checkDivide64(c *Circuit) error {
	vecs := [][2]uint64{
		{0, 1}, {1, 1}, {17, 5}, {1 << 63, 3}, {^uint64(0), 1},
		{^uint64(0), ^uint64(0)}, {12345678901234567, 987654321},
		{42, 100}, {0x8000000000000000, 0x8000000000000000},
		{0xdeadbeefcafebabe, 0x1337}, {7, 0}, {0, 0},
	}
	for _, v := range vecs {
		x, d := v[0], v[1]
		var wantQ, wantR uint64
		if d == 0 {
			wantQ, wantR = ^uint64(0), x // circuit's div-by-zero convention
		} else {
			wantQ, wantR = x/d, x%d
		}
		got, err := c.EvalPlain([][]bool{Uint64Bits(x, 64), Uint64Bits(d, 64)})
		if err != nil {
			return fmt.Errorf("div64 self-check: %w", err)
		}
		if gq, gr := BitsUint64(got[0]), BitsUint64(got[1]); gq != wantQ || gr != wantR {
			return fmt.Errorf("div64 self-check: %d/%d: got q=%d r=%d, want q=%d r=%d", x, d, gq, gr, wantQ, wantR)
		}
	}
	return nil
}
