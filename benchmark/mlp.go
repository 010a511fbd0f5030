package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ironman"
	"ironman/internal/arith"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/ppml"
	"ironman/internal/transport"
)

type mlpSizes struct {
	Shape    string `json:"shape"` // inputs-hidden-outputs
	Frac     int    `json:"fixed_point_frac_bits"`
	Params   string `json:"params"`
	Prefetch int    `json:"prefetch"`
	Workers  int    `json:"workers"`
	Budget   int    `json:"cots_per_direction_per_inference"`
}

// mlpShape is the network: d inputs -> h hidden (ReLU) -> o outputs.
type mlpShape struct{ d, h, o int }

func mlpDims(smoke bool) mlpShape {
	if smoke {
		return mlpShape{8, 16, 4}
	}
	return mlpShape{64, 64, 10}
}

// The two parties' trace lanes (the ones arith.Party.Observe uses).
const (
	mlpLaneA = 1
	mlpLaneB = 2
)

// mlpFixed is the fixed-point encoding; mlpWMax bounds |weight| so the
// layer-2 accumulators stay far below the 2^63 wrap of TruncVec's
// no-wrap assumption (failure odds ~2^-30 per element).
var mlpFixed = arith.Fixed{Frac: 12}

const mlpWMax = 0.25

// budget is the per-direction correlation count one inference draws,
// from the same operator cost models the examples provision with.
func (s mlpShape) budget() int {
	l1 := ppml.ArithMatTripleCost(s.h, s.d, 1)
	l2 := ppml.ArithMatTripleCost(s.o, s.h, 1)
	a2b := ppml.ArithA2BCost(int64(s.h), 64)
	relu := ppml.GMWMuxCost(int64(s.h), 64)
	b2a := ppml.ArithB2ACost(int64(s.h), 64)
	return int(l1.COTs/2+l2.COTs/2) + int(a2b.OTs/2+relu.OTs/2) + int(b2a.COTs)
}

// mlpWorkload is the paper's Fig. 1(a) picture end to end: production
// (two role-switched prefetching Ferret pairs) feeding consumption
// (one secure inference per iteration).
var mlpWorkload = &workload{
	name:   "mlp-infer",
	lane:   mlpLaneA,
	probes: []probe{probeLPN, probePool, probeCOT(false), probeCOT(true), probeGMW, probePipeRTT},
	why:    "end to end (Fig. 1a): two role-switched NewDealtPair 2^20 Prefetch 1 feed GMWPool draws for one secure fixed-point 64-64-10 MLP inference per iteration, checked against plaintext",
	aliases: []alias{
		{name: "infer_p50_ms", unit: "ms", of: "op_p50_ms", scale: 1},
	},
	sizes: func(smoke bool) any {
		s := mlpDims(smoke)
		p, err := benchParams(smoke)
		if err != nil {
			return err.Error()
		}
		return mlpSizes{Shape: fmt.Sprintf("%d-%d-%d", s.d, s.h, s.o), Frac: mlpFixed.Frac,
			Params: p.Name, Prefetch: 1, Workers: workers, Budget: s.budget()}
	},
	setup: func(e *env) (instance, error) {
		p, err := benchParams(e.smoke)
		if err != nil {
			return nil, err
		}
		r := e.rng(0)
		x := &mlpInst{rec: e.rec, rng: r, shape: mlpDims(e.smoke)}
		x.budget = x.shape.budget()
		vec := func(n int, scale float64) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = (2*r.Float64() - 1) * scale
			}
			return v
		}
		s := x.shape
		x.w1, x.b1 = vec(s.h*s.d, mlpWMax), vec(s.h, mlpWMax)
		x.w2, x.b2 = vec(s.o*s.h, mlpWMax), vec(s.o, mlpWMax)
		for i := range x.pairs {
			pr := &x.pairs[i]
			pr.connS, pr.connR = transport.Pipe()
			opts := ironman.Options{FourAryChaCha: true, Workers: workers, Prefetch: 1, Seed: randBlock(r)}
			pr.s, pr.r, err = ironman.NewDealtPair(pr.connS, pr.connR, randBlock(r), p, opts)
			if err != nil {
				x.close()
				return nil, err
			}
		}
		x.connA, x.connB = transport.Pipe()
		return x, nil
	},
}

// dealtPair is one OT direction's production: a prefetching Ferret
// pair over its own pipe.
type dealtPair struct {
	s            *ironman.Sender
	r            *ironman.Receiver
	connS, connR transport.Conn
}

type mlpInst struct {
	rec            *recorder
	rng            *rand.Rand
	shape          mlpShape
	budget         int
	w1, b1, w2, b2 []float64
	// pairs[0] produces the A->B direction (A is OT sender), pairs[1]
	// the role-switched B->A direction.
	pairs        [2]dealtPair
	connA, connB transport.Conn
	infers       int
	triples      int
	tripleBytes  int64 // party A's conn, inside the mattriple stage
}

func (x *mlpInst) clients() int { return 1 }

// party runs one side of one inference: draw this party's two pools,
// assemble the arithmetic party, evaluate. Party A (first) owns the
// model, party B the input. Only A's lane carries layer spans.
func (x *mlpInst) party(first bool, in []float64, root span, iter int) ([]float64, *arith.Party, error) {
	rec, conn, lane := x.rec, x.connA, mlpLaneA
	if !first {
		rec, conn, lane = nil, x.connB, mlpLaneB
	}
	stage := func(name string) span { return rec.begin(name, root, iter, lane) }
	s, f := x.shape, mlpFixed

	sp := stage("pool.draw")
	var out *cot.SenderPool
	var inp *cot.ReceiverPool
	var err error
	if first {
		if out, err = x.pairs[0].s.GMWPool(x.budget); err == nil {
			inp, err = x.pairs[1].r.GMWPool(x.budget)
		}
	} else {
		if out, err = x.pairs[1].s.GMWPool(x.budget); err == nil {
			inp, err = x.pairs[0].r.GMWPool(x.budget)
		}
	}
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	p, err := arith.NewParty(conn, out, inp, first)
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		p.Observe(nil, rec.tracer(), "")
	}

	sp = stage("arith.mattriple")
	wire0 := conn.Stats().TotalBytes()
	tr1, err := p.NewMatTriple(s.h, s.d, 1)
	if err != nil {
		return nil, nil, err
	}
	tr2, err := p.NewMatTriple(s.o, s.h, 1)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	if first && iter >= 0 {
		x.tripleBytes += conn.Stats().TotalBytes() - wire0
	}

	// Layer 1: z1 = W1·x + b1, rescaled back to Frac fractional bits.
	sp = stage("arith.matmul")
	w1s := p.NewPrivate(f.EncodeVec(x.w1), first)
	b1s := p.NewPrivate(f.EncodeVec(x.b1), first)
	xs := p.NewPrivate(f.EncodeVec(in), !first)
	z1, err := p.MatVec(w1s, xs, tr1)
	if err != nil {
		return nil, nil, err
	}
	z1, err = arith.Add(p.TruncVec(z1, f.Frac), b1s)
	sp.end()
	if err != nil {
		return nil, nil, err
	}

	// Nonlinearity: cross into the Boolean engine, ReLU, cross back.
	sp = stage("arith.a2b")
	planes, err := p.A2B(z1, 64)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = stage("gmw.relu")
	var kept []gmw.PackedShare
	kept, err = p.Bool.ReLUVec(planes)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = stage("arith.b2a")
	h1, err := p.B2A(kept)
	sp.end()
	if err != nil {
		return nil, nil, err
	}

	// Layer 2: logits = W2·h1 + b2, revealed to both.
	sp = stage("arith.matmul")
	w2s := p.NewPrivate(f.EncodeVec(x.w2), first)
	b2s := p.NewPrivate(f.EncodeVec(x.b2), first)
	z2, err := p.MatVec(w2s, h1, tr2)
	if err != nil {
		return nil, nil, err
	}
	z2, err = arith.Add(p.TruncVec(z2, f.Frac), b2s)
	if err != nil {
		return nil, nil, err
	}
	open, err := p.Reveal(z2)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	return f.DecodeVec(open), p, nil
}

func (x *mlpInst) op(_, iter int) (sample, error) {
	root := x.rec.begin(opSpan, span{}, iter, mlpLaneA)
	defer root.end()
	in := make([]float64, x.shape.d)
	for i := range in {
		in[i] = 2*x.rng.Float64() - 1
	}
	var outA, outB []float64
	var pa *arith.Party
	t0 := time.Now()
	err := both(
		func() (err error) { outA, pa, err = x.party(true, in, root, iter); return },
		func() (err error) { outB, _, err = x.party(false, in, root, iter); return },
	)
	busy := time.Since(t0)
	if err != nil {
		return sample{busy: busy}, err
	}
	if iter >= 0 {
		x.infers++
		x.triples += pa.Triples
	}
	chk := x.rec.begin("verify", root, iter, mlpLaneA)
	defer chk.end()
	want := x.plaintext(in)
	// ±1 ulp per truncation plus 1 ulp of floor-vs-float rounding on
	// each hidden unit, carried through |w2| <= mlpWMax across the
	// fan-in, plus the second layer's own 2 ulp (DESIGN.md, "Fixed
	// point and truncation error bound").
	tol := (2*float64(x.shape.h)*mlpWMax + 4) / float64(int64(1)<<mlpFixed.Frac)
	ok := len(outA) == len(want) && len(outB) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = math.Abs(outA[i]-want[i]) <= tol && math.Abs(outB[i]-want[i]) <= tol
	}
	return sample{busy: busy, cots: 2 * int64(x.budget), failed: !ok}, nil
}

// plaintext evaluates the model on the quantized parameters (the
// protocol computes on encodings, so that is the comparison point).
func (x *mlpInst) plaintext(in []float64) []float64 {
	q := func(v []float64) []float64 { return mlpFixed.DecodeVec(mlpFixed.EncodeVec(v)) }
	s := x.shape
	w1, b1, w2, b2, xq := q(x.w1), q(x.b1), q(x.w2), q(x.b2), q(in)
	h1 := make([]float64, s.h)
	for i := range h1 {
		acc := b1[i]
		for l := 0; l < s.d; l++ {
			acc += w1[i*s.d+l] * xq[l]
		}
		h1[i] = math.Max(acc, 0)
	}
	out := make([]float64, s.o)
	for i := range out {
		acc := b2[i]
		for l := 0; l < s.h; l++ {
			acc += w2[i*s.h+l] * h1[l]
		}
		out[i] = acc
	}
	return out
}

// wire is the inference conn only, so bytes per correlation drawn is
// exact. The production pipes carry whole Extend transcripts in the
// background, a different number of them per window (that cost per
// correlation is ferret-extend's wire_bytes_per_cot).
func (x *mlpInst) wire() int64 { return x.connA.Stats().TotalBytes() }

func (x *mlpInst) finish(nodes []node) (int, map[string]float64) {
	if nodes == nil || x.infers == 0 {
		return 0, map[string]float64{}
	}
	layers := map[string]float64{
		"arith.matmul_s": sum(durations(nodes, "arith.matmul", mlpLaneA)) / float64(x.infers),
		"arith.a2b_s":    median(durations(nodes, "arith.a2b", mlpLaneA)),
		"arith.b2a_s":    median(durations(nodes, "arith.b2a", mlpLaneA)),
	}
	if t := sum(durations(nodes, "arith.mattriple", mlpLaneA)); t > 0 && x.triples > 0 {
		layers["arith.triples_per_s"] = float64(x.triples) / t
		layers["arith.wire_bytes_per_triple"] = float64(x.tripleBytes) / float64(x.triples)
	}
	poolLayers(layers, x.pairs[0].s.PoolStats(), x.pairs[1].s.PoolStats())
	return 0, layers
}

// poolLayers folds pool counters into the pool.* per-layer metrics.
func poolLayers(layers map[string]float64, stats ...ironman.PoolStats) {
	var draws, blocked, refills uint64
	var wait time.Duration
	for _, s := range stats {
		draws += s.Draws
		blocked += s.BlockedDraws
		refills += s.Refills
		wait += s.BlockedTime
	}
	if draws > 0 {
		layers["pool.blocked_draw_share"] = float64(blocked) / float64(draws)
	}
	layers["pool.blocked_time_s"] = wait.Seconds()
	layers["pool.refills"] = float64(refills)
}

func (x *mlpInst) close() {
	for i := range x.pairs {
		pr := &x.pairs[i]
		// Conn first, then Close: an in-flight background iteration is
		// interrupted instead of waited for.
		if pr.connS != nil {
			_ = pr.connS.Close()
			_ = pr.connR.Close()
		}
		if pr.s != nil {
			_ = pr.s.Close()
		}
	}
	if x.connA != nil {
		_ = x.connA.Close()
		_ = x.connB.Close()
	}
}
