package main

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"time"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/transport"
)

type aesSizes struct {
	Circuit   string `json:"circuit"`
	Instances int    `json:"simd_instances"`
	ANDs      int    `json:"and_gates_per_eval"`
	Depth     int    `json:"exchanges_per_eval"`
}

// The two parties' trace lanes: the ones gmw.Party.Observe puts its
// exchange spans on, so they nest under the benchmark's eval spans.
const (
	aesLaneA = 1
	aesLaneB = 2
)

func aesInstances(smoke bool) int {
	if smoke {
		return 2
	}
	return 16
}

// aesWorkload is consumption only: dealer pools stand in for Extend,
// so an extension-backend change must not move it.
var aesWorkload = &workload{
	name:   "aes-circuit",
	why:    "consumption only: cot.PoolsFromStream dealer pools (Extend bypassed), circuit.AES128 compiled once, 16 SIMD instances per Program.Eval over gmw, checked against crypto/aes",
	lane:   aesLaneA,
	probes: []probe{probePRG, probeCOT(false), probeGMW, probePipeRTT},
	aliases: []alias{
		{name: "and_gates_per_s", unit: "AND/s", of: "cot_per_s", scale: 0.5},
	},
	sizes: func(smoke bool) any {
		c := circuit.AES128()
		prog, err := circuit.Compile(c)
		if err != nil {
			return err.Error()
		}
		k := aesInstances(smoke)
		return aesSizes{Circuit: "aes128", Instances: k, ANDs: prog.ANDs * k, Depth: prog.ANDLevels}
	},
	setup: func(e *env) (instance, error) {
		r := e.rng(0)
		x := &aesInst{rec: e.rec, rng: r, k: aesInstances(e.smoke), dealer: aesprg.NewStream(randBlock(r))}
		x.deltaAB, x.deltaBA = randBlock(r), randBlock(r)
		sp := e.rec.begin("circuit.compile", span{}, -1, aesLaneA)
		t0 := time.Now()
		var err error
		x.prog, err = circuit.Compile(circuit.AES128())
		x.compileS = time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return nil, err
		}
		x.connA, x.connB = transport.Pipe()
		empty := func(delta block.Block) (*cot.SenderPool, *cot.ReceiverPool, error) {
			return cot.PoolsFromStream(x.dealer, delta, 0)
		}
		sAB, rAB, err := empty(x.deltaAB)
		if err != nil {
			return nil, err
		}
		sBA, rBA, err := empty(x.deltaBA)
		if err != nil {
			return nil, err
		}
		err = both(
			func() (err error) { x.a, err = gmw.NewParty(x.connA, sAB, rBA, true); return },
			func() (err error) { x.b, err = gmw.NewParty(x.connB, sBA, rAB, false); return },
		)
		if err != nil {
			x.close()
			return nil, err
		}
		if e.rec != nil {
			// The public hook: one "gmw.exchange" span per AND level on
			// lanes aesLaneA (first party) and aesLaneB.
			x.a.Observe(nil, e.rec.tracer(), "")
			x.b.Observe(nil, e.rec.tracer(), "")
		}
		return x, nil
	},
}

type aesInst struct {
	rec              *recorder
	rng              *rand.Rand
	k                int
	prog             *circuit.Program
	compileS         float64
	dealer           *aesprg.Stream
	deltaAB, deltaBA block.Block
	a, b             *gmw.Party
	connA, connB     transport.Conn
	// In-situ counters over the timed window.
	evals     int
	exchanges int
	evalBytes int64
}

func (x *aesInst) clients() int { return 1 }

func (x *aesInst) op(_, iter int) (sample, error) {
	root := x.rec.begin(opSpan, span{}, iter, aesLaneA)
	defer root.end()

	// Inputs: party A owns the plaintexts, party B the keys.
	pts, keys := make([][]byte, x.k), make([][]byte, x.k)
	ptBits, keyBits := make([][]bool, x.k), make([][]bool, x.k)
	for i := range pts {
		pts[i], keys[i] = make([]byte, 16), make([]byte, 16)
		x.rng.Read(pts[i])
		x.rng.Read(keys[i])
		ptBits[i], keyBits[i] = circuit.BytesBits(pts[i]), circuit.BytesBits(keys[i])
	}
	planes := func(partyA bool) ([]gmw.PackedShare, error) {
		pt, err := circuit.SharePlanes(ptBits, 128, partyA)
		if err != nil {
			return nil, err
		}
		key, err := circuit.SharePlanes(keyBits, 128, !partyA)
		return append(pt, key...), err
	}
	inA, err := planes(true)
	if err != nil {
		return sample{}, err
	}
	inB, err := planes(false)
	if err != nil {
		return sample{}, err
	}

	// Fresh dealer pools per evaluation: this is the work Extend would
	// do, deliberately outside the timed part.
	deal := x.rec.begin("cot.deal", root, iter, aesLaneA)
	budget := x.prog.Budget(x.k).ANDGates
	sAB, rAB, err := cot.PoolsFromStream(x.dealer, x.deltaAB, budget)
	if err != nil {
		return sample{}, err
	}
	sBA, rBA, err := cot.PoolsFromStream(x.dealer, x.deltaBA, budget)
	if err != nil {
		return sample{}, err
	}
	x.a.Out, x.a.In, x.b.Out, x.b.In = sAB, rBA, sBA, rAB
	deal.end()

	ex0, wire0 := x.a.Exchanges, x.connA.Stats().TotalBytes()
	var outA, outB []gmw.PackedShare
	t0 := time.Now()
	err = both(
		func() (err error) {
			sp := x.rec.begin("circuit.eval", root, iter, aesLaneA)
			outA, err = x.prog.Eval(x.a, inA, nil)
			sp.end()
			return
		},
		func() (err error) {
			sp := x.rec.begin("circuit.eval", root, iter, aesLaneB)
			outB, err = x.prog.Eval(x.b, inB, nil)
			sp.end()
			return
		},
	)
	busy := time.Since(t0)
	if err != nil {
		return sample{busy: busy}, err
	}
	if iter >= 0 {
		x.evals++
		x.exchanges += x.a.Exchanges - ex0
		x.evalBytes += x.connA.Stats().TotalBytes() - wire0
	}

	chk := x.rec.begin("verify", root, iter, aesLaneA)
	defer chk.end()
	var opened [][]bool
	err = both(
		func() (err error) { opened, err = circuit.Reveal(x.a, outA); return },
		func() (err error) { _, err = circuit.Reveal(x.b, outB); return },
	)
	if err != nil {
		return sample{busy: busy}, err
	}
	ok := len(opened) == x.k
	for i := 0; ok && i < x.k; i++ {
		c, err := aes.NewCipher(keys[i])
		if err != nil {
			return sample{busy: busy}, err
		}
		want := make([]byte, 16)
		c.Encrypt(want, pts[i])
		ok = bytes.Equal(circuit.BitsBytes(opened[i]), want)
	}
	return sample{busy: busy, cots: 2 * int64(budget), failed: !ok}, nil
}

func (x *aesInst) wire() int64 { return x.connA.Stats().TotalBytes() }

func (x *aesInst) finish(nodes []node) (int, map[string]float64) {
	layers := map[string]float64{"circuit.compile_s": x.compileS}
	if x.evals > 0 {
		ands := float64(x.evals * x.prog.ANDs * x.k)
		layers["gmw.exchanges"] = float64(x.exchanges) / float64(x.evals)
		layers["gmw.wire_bytes_per_and"] = float64(x.evalBytes) / ands
	}
	if evals := durations(nodes, "circuit.eval", aesLaneA); len(evals) > 0 {
		layers["circuit.eval_s"] = median(evals)
		// Local share: the part of an evaluation not spent inside an
		// AND exchange (gates between levels, register moves).
		layers["circuit.local_share"] = 1 - sum(durations(nodes, "gmw.exchange", aesLaneA))/sum(evals)
	}
	return 0, layers
}

func (x *aesInst) close() {
	_ = x.connA.Close()
	_ = x.connB.Close()
}
