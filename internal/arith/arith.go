// Package arith is a two-party additive secret-sharing engine over
// Z_2^64 — the arithmetic half of the compute model the Ironman paper
// assumes (§2.2): PPML frameworks run linear layers (matrix products)
// on additive shares whose Beaver multiplication triples are the main
// consumer of COT-derived preprocessing, and bridge to Boolean (GMW)
// sharing for the comparisons inside ReLU-style nonlinearities.
//
// A value x is shared as x = x_A + x_B (mod 2^64). Addition and
// scaling by public constants are local; multiplication consumes
// Beaver triples generated from correlated OT via Gilboa's
// bit-decomposition product (gilboa.go), one correlated word OT per
// multiplier bit (cot.SendCorrelatedWords), so triple preprocessing
// draws on the same correlation pools — and the same two-directional
// role-switched OT layout (§5.2) — as the GMW engine. Share
// conversions A2B/B2A (convert.go) bridge into internal/gmw over the
// SAME conn and the SAME pools, so one session runs linear algebra
// arithmetic and nonlinearities Boolean without a second transport.
//
// Like the GMW engine, the protocol is positional: both parties must
// issue calls in matching order with matching shapes, and every
// batched operation is a constant number of message flights regardless
// of element count. Two-way exchanges (opens, Gilboa cross products)
// are role-ordered by the embedded Bool party's gmw.Party.Ordered.
package arith

import (
	"fmt"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/obs"
	"ironman/internal/transport"
)

// Share is an additively-shared vector over Z_2^64: each party holds
// one of these and the logical vector is the element-wise sum mod 2^64.
type Share []uint64

// Party is one side of an arithmetic evaluation. Like gmw.Party it
// holds a COT pool per OT direction; Bool is an embedded GMW party
// sharing the same conn and the same pools, so Boolean layers (via
// A2B/B2A) interleave with arithmetic ones on one session.
type Party struct {
	conn transport.Conn
	hash *aesprg.Hash
	// prg is the local randomness source for triple shares, keyed once
	// at construction (aesprg.NewLocal) so hot loops never syscall.
	prg *aesprg.Stream
	// Out: correlations where this party is the OT sender.
	Out *cot.SenderPool
	// In: correlations where this party is the OT receiver.
	In *cot.ReceiverPool
	// Bool evaluates Boolean layers on the same conn and pools; use it
	// with the planes returned by A2B.
	Bool *gmw.Party
	// first breaks message-ordering symmetry; exactly one party has it
	// set (verified by the gmw handshake at construction).
	first bool

	Triples   int // Beaver triples generated (scalar-product equivalents)
	Mults     int // Beaver multiplications consumed (scalar-product equivalents)
	Exchanges int // batched two-flight exchanges (triple gen, opens, B2A)

	// Observability hooks (Observe); all nil-safe and absent by default.
	trace      *obs.Tracer
	tid        int
	mOpens     *obs.Counter // ironman_arith_opens_total
	mOpenWords *obs.Counter // ironman_arith_open_words_total
	mTriples   *obs.Counter // ironman_arith_triples_total
}

// Observe attaches a metrics registry and/or phase tracer: every
// subsequent share open increments
// ironman_arith_{opens,open_words}_total{labels} and records one
// "arith.open" span (thread id 1 for the first party, 2 for the peer),
// and every generated Beaver triple counts toward
// ironman_arith_triples_total{labels}. The embedded Bool party is wired
// up too (gmw metric families, same labels). Either argument may be
// nil; call before the first protocol operation.
func (p *Party) Observe(reg *obs.Registry, tr *obs.Tracer, labels string) {
	p.trace = tr
	p.tid = 2
	if p.first {
		p.tid = 1
	}
	p.mOpens = reg.Counter(obs.Name("ironman_arith_opens_total", labels))
	p.mOpenWords = reg.Counter(obs.Name("ironman_arith_open_words_total", labels))
	p.mTriples = reg.Counter(obs.Name("ironman_arith_triples_total", labels))
	p.Bool.Observe(reg, tr, labels)
}

// NewParty assembles an arithmetic party from one COT pool per OT
// direction and runs the role handshake over conn (the peer must call
// it concurrently with the opposite first flag). The embedded Bool
// party shares conn and both pools: arithmetic word OTs, Boolean bit
// OTs and block OTs all consume the same correlations in lockstep.
func NewParty(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) (*Party, error) {
	g, err := gmw.NewParty(conn, out, in, first)
	if err != nil {
		return nil, err
	}
	return &Party{
		conn:  conn,
		hash:  aesprg.NewHash(),
		prg:   aesprg.NewLocal(block.Block{}, block.Block{}),
		Out:   out,
		In:    in,
		Bool:  g,
		first: first,
	}, nil
}

// NewPrivate builds a share of this party's private input: this party
// holds the values, the peer's share is zero. Both parties must call
// it in matching order, with mine telling whose input it is.
func (p *Party) NewPrivate(vals []uint64, mine bool) Share {
	s := make(Share, len(vals))
	if mine {
		copy(s, vals)
	}
	return s
}

// randomVec draws a fresh local random vector from the party's PRG.
func (p *Party) randomVec(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = p.prg.Uint64()
	}
	return v
}

// Add is a free local gate: out = a + b element-wise.
func Add(a, b Share) (Share, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("arith: Add length mismatch: %d vs %d", len(a), len(b))
	}
	out := make(Share, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// openWords exchanges share vectors (one flight per direction, ordered
// by the first flag) and returns the element-wise sums — the plaintext.
func (p *Party) openWords(mine []uint64) ([]uint64, error) {
	sp := p.trace.Span("arith.open", "arith", p.tid)
	p.mOpens.Inc()
	p.mOpenWords.Add(uint64(len(mine)))
	var peer []uint64
	err := p.Bool.Ordered(func() error { return transport.SendWords(p.conn, mine) }, func() (err error) {
		peer, err = transport.RecvWords(p.conn, len(mine))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(mine))
	for i := range out {
		out[i] = mine[i] + peer[i]
	}
	if sp.Live() {
		sp.EndArgs(map[string]any{"words": len(mine)})
	}
	return out, nil
}

// Reveal opens a share to both parties in one exchange.
func (p *Party) Reveal(a Share) ([]uint64, error) {
	out, err := p.openWords(a)
	if err != nil {
		return nil, err
	}
	p.Exchanges++
	return out, nil
}
