// Package iknp implements the IKNP03 OT extension in its correlated-OT
// form. It is both one of the three OTE families the paper surveys
// (§2.3) and the initializer of the PCG-style protocol: Ferret's first
// iteration needs k + t·log2(ℓ) COT correlations, which IKNP produces
// from 128 public-key base OTs at one column of communication per
// extended COT.
//
// Construction (semi-honest): the extension sender's global Δ doubles
// as its base-OT choice vector s. The extension receiver plays base-OT
// sender with random key pairs (k_i^0, k_i^1); for n extended COTs it
// sends u_i = PRG(k_i^0) ⊕ PRG(k_i^1) ⊕ x (x = its choice bits), and
// the sender computes q_i = PRG(k_i^{s_i}) ⊕ s_i·u_i. Row j of the
// transposed matrix satisfies q_j = t_j ⊕ x_j·s — a COT with Δ = s.
package iknp

import (
	"crypto/subtle"
	"fmt"

	"ironman/internal/aesprg"
	"ironman/internal/baseot"
	"ironman/internal/block"
	"ironman/internal/transport"
)

const kappa = 128 // computational security parameter / matrix width

// Sender is the OT-extension sender (holder of Δ).
type Sender struct {
	conn  transport.Conn
	Delta block.Block
	cols  []*aesprg.Stream // PRG(k_i^{s_i}), advanced by every Extend
}

// Receiver is the OT-extension receiver.
type Receiver struct {
	conn transport.Conn
	cols [][2]*aesprg.Stream // PRG(k_i^0), PRG(k_i^1)
}

// NewSender establishes the extension sender: it runs kappa base OTs as
// the base-OT *receiver*, choosing with the bits of delta.
func NewSender(conn transport.Conn, delta block.Block) (*Sender, error) {
	choices := make([]bool, kappa)
	for i := range choices {
		choices[i] = delta.Bit(i) == 1
	}
	keys, err := baseot.Receive(conn, choices)
	if err != nil {
		return nil, fmt.Errorf("iknp: base OT: %w", err)
	}
	return newSender(conn, delta, keys), nil
}

// NewReceiver establishes the extension receiver: it runs kappa base
// OTs as the base-OT *sender*.
func NewReceiver(conn transport.Conn) (*Receiver, error) {
	pairs, err := baseot.Send(conn, kappa)
	if err != nil {
		return nil, fmt.Errorf("iknp: base OT: %w", err)
	}
	return newReceiver(conn, pairs), nil
}

// newSender and newReceiver key one persistent AES-CTR stream per
// matrix column. Both parties draw the same number of bytes from every
// column in every Extend, so the streams stay aligned.
func newSender(conn transport.Conn, delta block.Block, keys []block.Block) *Sender {
	s := &Sender{conn: conn, Delta: delta, cols: make([]*aesprg.Stream, kappa)}
	for i, k := range keys {
		s.cols[i] = aesprg.NewStream(k)
	}
	return s
}

func newReceiver(conn transport.Conn, pairs [][2]block.Block) *Receiver {
	r := &Receiver{conn: conn, cols: make([][2]*aesprg.Stream, kappa)}
	for i, p := range pairs {
		r.cols[i] = [2]*aesprg.Stream{aesprg.NewStream(p[0]), aesprg.NewStream(p[1])}
	}
	return r
}

// Extend produces n more COT correlations: the returned blocks are the
// sender's r0 values (r1 = r0 ⊕ Δ implied).
func (s *Sender) Extend(n int) ([]block.Block, error) {
	nb := (n + 7) / 8
	u, err := s.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(u) != kappa*nb {
		return nil, fmt.Errorf("iknp: expected %d matrix bytes, got %d", kappa*nb, len(u))
	}
	q := make([][]byte, kappa)
	for i := range q {
		q[i] = make([]byte, nb)
		s.cols[i].Fill(q[i])
		if s.Delta.Bit(i) == 1 {
			subtle.XORBytes(q[i], q[i], u[i*nb:(i+1)*nb])
		}
	}
	return transpose(q, n), nil
}

// Extend produces the receiver's side for the given choice bits: the
// returned blocks satisfy r_b[j] = r0[j] ⊕ choices[j]·Δ.
func (r *Receiver) Extend(choices []bool) ([]block.Block, error) {
	n := len(choices)
	nb := (n + 7) / 8
	x := make([]byte, nb)
	for j, c := range choices {
		if c {
			x[j/8] |= 1 << uint(j%8)
		}
	}
	t := make([][]byte, kappa)
	u := make([]byte, kappa*nb)
	for i := range t {
		t[i] = make([]byte, nb)
		r.cols[i][0].Fill(t[i])
		// u_i = t0 ⊕ t1 ⊕ x, built in its slot of the outgoing matrix.
		ui := u[i*nb : (i+1)*nb]
		r.cols[i][1].Fill(ui)
		subtle.XORBytes(ui, ui, t[i])
		subtle.XORBytes(ui, ui, x)
	}
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	return transpose(t, n), nil
}

// transpose converts kappa column bit-vectors into n row blocks: row j
// has bit i equal to bit j of column i.
func transpose(cols [][]byte, n int) []block.Block {
	rows := make([]block.Block, n)
	block.TransposeBits(rows, cols, 0, n)
	return rows
}
