package arith

import (
	"fmt"

	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/transport"
)

// Share conversions (convert.go): the bridges between the additive
// world of linear layers and the Boolean world of comparisons.
//
//   - A2B re-shares an arithmetic vector as XOR-shared bit-planes by
//     running the packed parallel-prefix adder (gmw.AddVec) over the
//     two parties' shares entered as private Boolean inputs: the sum
//     mod 2^width IS the value, so the adder's outputs are Boolean
//     shares of it. Cost: gmw.AdderANDGates(width) AND gates per
//     element in gmw.AdderExchanges(width) exchanges.
//
//   - B2A converts XOR-shared bit-planes back to additive shares with
//     one correlated word OT per bit per element (single direction,
//     the first party sending): b = b_A ⊕ b_B = b_A + b_B - 2·b_A·b_B,
//     and the product b_A·b_B costs one OT with correlation b_A mod
//     2^(64-j-1) for plane j (the sender gets s, the receiver
//     s + b_A·b_B) — the top plane's product term vanishes mod 2^64
//     when width = 64, costing no OT at all.
//
// Both directions consume the same pools as everything else; A2B
// draws on both directions (GMW AND gates), B2A only on the
// first-party→second-party pair.

// A2B converts an arithmetic share into XOR-shared bit-planes of the
// value mod 2^width (width = 64 for the full ring; smaller widths
// convert the low bits only, which is sound only when the shared
// values fit). The caller runs Boolean layers on the result via
// p.Bool, then returns with B2A.
func (p *Party) A2B(x Share, width int) ([]gmw.PackedShare, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("arith: A2B width %d out of range [1,64]", width)
	}
	// Each party enters its own arithmetic share as a private Boolean
	// vector; NewPrivateVec ignores vals unless mine, so passing x for
	// both inputs shares each side's actual words.
	pa := p.Bool.NewPrivateVec(x, width, p.first)
	pb := p.Bool.NewPrivateVec(x, width, !p.first)
	return p.Bool.AddVec(pa, pb)
}

// b2aWidths returns the OT payload widths of one element's B2A: plane
// j's product term is scaled by 2^(j+1), so it only matters mod
// 2^(64-j-1); planes whose width hits zero cost no OT.
func b2aWidths(width int) []int {
	var ws []int
	for j := 0; j < width; j++ {
		if w := 64 - j - 1; w > 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// B2A converts XOR-shared bit-planes (width = len(planes) <= 64) into
// additive shares of the same values. One batched correlated word-OT
// exchange, first party as sender.
func (p *Party) B2A(planes []gmw.PackedShare) (Share, error) {
	width := len(planes)
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("arith: B2A needs 1..64 planes, got %d", width)
	}
	n := planes[0].Len()
	for j := range planes {
		if planes[j].Len() != n {
			return nil, fmt.Errorf("arith: B2A plane %d length mismatch", j)
		}
	}
	// vals[e] is this party's packed XOR share of element e.
	vals := gmw.UnpackVec(planes)
	perElem := b2aWidths(width)
	cnt := len(perElem)
	need := cnt * n
	if p.first {
		if p.Out.Remaining() < need {
			return nil, fmt.Errorf("arith: B2A of %d elements: %w (need %d COTs, out %d)",
				n, cot.ErrExhausted, need, p.Out.Remaining())
		}
	} else if p.In.Remaining() < need {
		return nil, fmt.Errorf("arith: B2A of %d elements: %w (need %d COTs, in %d)",
			n, cot.ErrExhausted, need, p.In.Remaining())
	}
	widths := make([]int, need)
	for e := 0; e < n; e++ {
		copy(widths[e*cnt:], perElem)
	}
	out := make(Share, n)
	if p.first {
		// Sender: correlation b_A per instance, output s; my share gains
		// b_A·2^j + s·2^(j+1) (the -2t split: t = v - s at the peer).
		x := make([]uint64, need)
		idx := 0
		for e := 0; e < n; e++ {
			for j := 0; j < width; j++ {
				if 64-j-1 <= 0 {
					continue
				}
				x[idx] = vals[e] >> uint(j) & 1
				idx++
			}
		}
		s, err := cot.SendCorrelatedWords(p.conn, p.Out, p.hash, x, widths)
		if err != nil {
			return nil, err
		}
		for e := 0; e < n; e++ {
			var acc uint64
			idx := e * cnt
			for j := 0; j < width; j++ {
				bit := vals[e] >> uint(j) & 1
				acc += bit << uint(j)
				if 64-j-1 <= 0 {
					continue
				}
				acc += s[idx] << uint(j+1)
				idx++
			}
			out[e] = acc
		}
	} else {
		// Receiver: choice bits are my share bits; v = s + b_A·b_B, and
		// my share gains b_B·2^j - v·2^(j+1).
		choices := make([]uint64, transport.PackedLimbs(need))
		idx := 0
		for e := 0; e < n; e++ {
			for j := 0; j < width; j++ {
				if 64-j-1 <= 0 {
					continue
				}
				choices[idx/64] |= (vals[e] >> uint(j) & 1) << uint(idx%64)
				idx++
			}
		}
		vs, err := cot.ReceiveCorrelatedWords(p.conn, p.In, p.hash, choices, widths)
		if err != nil {
			return nil, err
		}
		for e := 0; e < n; e++ {
			var acc uint64
			idx := e * cnt
			for j := 0; j < width; j++ {
				bit := vals[e] >> uint(j) & 1
				acc += bit << uint(j)
				if 64-j-1 <= 0 {
					continue
				}
				acc -= vs[idx] << uint(j+1)
				idx++
			}
			out[e] = acc
		}
	}
	p.Exchanges++
	return out, nil
}
