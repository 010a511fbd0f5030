package arith

import (
	"fmt"

	"ironman/internal/cot"
)

// Gilboa bit-decomposition products (gilboa.go): the COT-to-triple
// conversion. A product x·y where this party holds x and the peer
// holds y decomposes as x·y = sum_i y_i·x·2^i: for every bit y_i of
// the peer's operand the parties run one chosen-message word OT
// (cot.SendChosenWords) whose messages are (s_i, s_i + x) mod
// 2^(64-i) under a fresh PRG mask s_i. The sender's product share is
// -sum_i s_i·2^i, the receiver's sum_i v_i·2^i — and because bit i of
// the product only matters mod 2^(64-i), instance i ships only 64-i
// bits per ciphertext (2080 of the naive 4096 bits per side).
//
// A Beaver triple (a, b, c = a·b) combines one Gilboa product per OT
// direction (the two cross terms a_A·b_B and a_B·b_A) with the local
// terms, consuming 64 COTs per direction per triple — the arithmetic
// mirror of the GMW AND gate's one-OT-per-direction cross terms.

// gilboaWidths returns the per-instance payload widths of n Gilboa
// products: 64 instances per product, instance i mod 2^(64-i).
func gilboaWidths(n int) []int {
	widths := make([]int, 64*n)
	for j := 0; j < n; j++ {
		for i := 0; i < 64; i++ {
			widths[64*j+i] = 64 - i
		}
	}
	return widths
}

// mulSend runs the OT-sender half of len(a) Gilboa products against
// the peer's mulRecv, returning this party's additive product shares.
func (p *Party) mulSend(a []uint64, widths []int) ([]uint64, error) {
	n := len(a)
	m0 := make([]uint64, 64*n)
	m1 := make([]uint64, 64*n)
	share := make([]uint64, n)
	for j, aj := range a {
		var acc uint64
		for i := 0; i < 64; i++ {
			s := p.prg.Uint64()
			m0[64*j+i] = s
			m1[64*j+i] = s + aj
			acc -= s << uint(i)
		}
		share[j] = acc
	}
	if err := cot.SendChosenWords(p.conn, p.Out, p.hash, m0, m1, widths); err != nil {
		return nil, err
	}
	return share, nil
}

// mulRecv runs the OT-receiver half of len(b) Gilboa products: the
// choice bits of product j are exactly the bits of b[j], so b itself
// is the limb-packed choice vector.
func (p *Party) mulRecv(b []uint64, widths []int) ([]uint64, error) {
	n := len(b)
	vs, err := cot.ReceiveChosenWords(p.conn, p.In, p.hash, b, widths)
	if err != nil {
		return nil, err
	}
	share := make([]uint64, n)
	for j := range share {
		var acc uint64
		for i := 0; i < 64; i++ {
			acc += vs[64*j+i] << uint(i)
		}
		share[j] = acc
	}
	return share, nil
}

// checkBudget fails a Gilboa layer of n products per direction before
// any traffic when the pools cannot cover it; pools advance in
// lockstep so both sides fail symmetrically (the gmw discipline).
func (p *Party) checkBudget(n int) error {
	need := 64 * n
	if p.Out.Remaining() < need || p.In.Remaining() < need {
		return fmt.Errorf("arith: Gilboa layer of %d products: %w (need %d COTs/direction, out %d, in %d)",
			n, cot.ErrExhausted, need, p.Out.Remaining(), p.In.Remaining())
	}
	return nil
}

// crossProducts runs both directions' Gilboa products in one exchange
// in the gmw sense — two OT passes serialized by the first flag, the
// same flight pattern (and the same Exchanges accounting) as a packed
// AND layer: this party's products of a (as OT sender) and of b (as
// OT receiver, against the peer's a). Returns the two share vectors
// summed element-wise.
func (p *Party) crossProducts(a, b []uint64) ([]uint64, error) {
	widths := gilboaWidths(len(a))
	var sendShare, recvShare []uint64
	send := func() error {
		s, err := p.mulSend(a, widths)
		sendShare = s
		return err
	}
	recv := func() error {
		r, err := p.mulRecv(b, widths)
		recvShare = r
		return err
	}
	var err error
	if p.first {
		if err = send(); err == nil {
			err = recv()
		}
	} else {
		if err = recv(); err == nil {
			err = send()
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(a))
	for i := range out {
		out[i] = sendShare[i] + recvShare[i]
	}
	p.Exchanges++
	return out, nil
}

// MatTriple is a Beaver matrix triple: random shared A (m×k), B
// (k×n) and shares of C = A·B, all row-major. One triple serves one
// MatMul of the same shape; MatMul enforces the single-use contract.
type MatTriple struct {
	M, K, N int
	A, B, C Share
	used    bool
}

// matMulPlain is the local row-major product a (m×k) · b (k×n).
func matMulPlain(a, b []uint64, m, k, n int) []uint64 {
	out := make([]uint64, m*n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			ail := a[i*k+l]
			if ail == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += ail * b[l*n+j]
			}
		}
	}
	return out
}

// NewMatTriple generates a Beaver matrix triple of shape (m×k)·(k×n)
// from correlated OT. The cross terms A_mine·B_peer and A_peer·B_mine
// are m·k·n scalar Gilboa products flattened into ONE batched
// exchange per direction (64·m·k·n COTs per direction), summed over
// the inner dimension locally — so the online MatMul only ever opens
// D = X-A and E = Y-B, never per-output-element masks.
func (p *Party) NewMatTriple(m, k, n int) (*MatTriple, error) {
	if m < 1 || k < 1 || n < 1 {
		return nil, fmt.Errorf("arith: MatTriple needs positive dims, got %dx%dx%d", m, k, n)
	}
	prods := m * k * n
	if err := p.checkBudget(prods); err != nil {
		return nil, err
	}
	a := p.randomVec(m * k)
	b := p.randomVec(k * n)
	c := matMulPlain(a, b, m, k, n)
	// Flatten the cross products: index (i, l, j) pairs my A[i,l]
	// (OT-sender operand) with the peer's B[l,j] (receiver choices are
	// my own B[l,j] for the mirrored product).
	aFlat := make([]uint64, prods)
	bFlat := make([]uint64, prods)
	idx := 0
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			for j := 0; j < n; j++ {
				aFlat[idx] = a[i*k+l]
				bFlat[idx] = b[l*n+j]
				idx++
			}
		}
	}
	cross, err := p.crossProducts(aFlat, bFlat)
	if err != nil {
		return nil, err
	}
	idx = 0
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += cross[idx]
				idx++
			}
		}
	}
	p.Triples += prods
	p.mTriples.Add(uint64(prods))
	return &MatTriple{M: m, K: k, N: n, A: a, B: b, C: c}, nil
}

// MatMul multiplies shared row-major matrices x (m×k) and y (k×n)
// with a matching Beaver matrix triple, consuming ONE open exchange
// (D and E revealed together): Z = C + D·B + A·E (+ D·E at the first
// party). The triple is single-use — opening a second D = X'-A under
// the same A would reveal X-X' to the peer — so reuse is rejected.
func (p *Party) MatMul(x, y Share, t *MatTriple) (Share, error) {
	m, k, n := t.M, t.K, t.N
	if t.used {
		return nil, fmt.Errorf("arith: MatMul triple already consumed: %w", cot.ErrExhausted)
	}
	if len(x) != m*k || len(y) != k*n {
		return nil, fmt.Errorf("arith: MatMul shape mismatch: got %d and %d elements for %dx%d·%dx%d",
			len(x), len(y), m, k, k, n)
	}
	t.used = true
	de := make([]uint64, m*k+k*n)
	for i := range x {
		de[i] = x[i] - t.A[i]
	}
	for i := range y {
		de[m*k+i] = y[i] - t.B[i]
	}
	open, err := p.openWords(de)
	if err != nil {
		return nil, err
	}
	d, e := open[:m*k], open[m*k:]
	z := Share(matMulPlain(d, t.B, m, k, n))
	ae := matMulPlain(t.A, e, m, k, n)
	for i := range z {
		z[i] += t.C[i] + ae[i]
	}
	if p.first {
		dePart := matMulPlain(d, e, m, k, n)
		for i := range z {
			z[i] += dePart[i]
		}
	}
	p.Mults += m * k * n
	p.Exchanges++
	return z, nil
}

// MatVec is MatMul specialized to a matrix–vector product (n = 1).
func (p *Party) MatVec(mat, vec Share, t *MatTriple) (Share, error) {
	if t.N != 1 {
		return nil, fmt.Errorf("arith: MatVec needs an n=1 triple, got n=%d", t.N)
	}
	return p.MatMul(mat, vec, t)
}
