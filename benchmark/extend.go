package main

import (
	"time"

	"ironman/internal/block"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/transport"
)

// smokeParams is the CI-scale parameter set every workload's -smoke
// size runs on.
func smokeParams() ferret.Params { return ferret.TestParams(20000, 64, 2048, 32) }

// benchParams resolves the size class's parameter set: Table 4 "2^20",
// or the smoke set.
func benchParams(smoke bool) (ferret.Params, error) {
	if smoke {
		return smokeParams(), nil
	}
	return ferret.ParamsByName("2^20")
}

type extendSizes struct {
	Backend string `json:"backend"`
	Params  string `json:"params"`
	Batch   int    `json:"cots_per_extend"`
	Workers int    `json:"workers"`
}

// extendWorkload is the production-only shape on one backend: real
// network init over a pipe, then ExtendLockstep in a closed loop.
//
// lane is the trace lane of the party that finishes last, so the phase
// spans that party emits through Options.Trace nest under the
// benchmark's span around the Extend call: ferret's receiver (it
// encodes the choice bits after the blocks), softspoken's sender (it
// transposes after the receiver's one message arrives).
func extendWorkload(name, backend string, lane int, probes []probe, why string) *workload {
	resolve := func(smoke bool) (extension.Backend, ferret.Params, error) {
		b, err := extension.ByName(backend)
		if err != nil {
			return nil, ferret.Params{}, err
		}
		p, err := benchParams(smoke)
		return b, p, err
	}
	return &workload{
		name:   name,
		why:    why,
		lane:   lane,
		probes: probes,
		sizes: func(smoke bool) any {
			b, p, err := resolve(smoke)
			if err != nil {
				return err.Error()
			}
			return extendSizes{Backend: b.Name(), Params: p.Name, Batch: b.Batch(p), Workers: workers}
		},
		setup: func(e *env) (instance, error) {
			b, p, err := resolve(e.smoke)
			if err != nil {
				return nil, err
			}
			r := e.rng(0)
			x := &extendInst{rec: e.rec, backend: b.Name(), batch: b.Batch(p), delta: randBlock(r), lane: lane}
			opts := extension.Options{Workers: workers, Seed: randBlock(r), Trace: e.rec.tracer()}
			x.cost = b.Cost(p, opts)
			x.connS, x.connR = transport.Pipe()
			err = both(
				func() (err error) { x.s, err = b.NewSender(x.connS, x.delta, p, opts); return },
				func() (err error) { x.r, err = b.NewReceiver(x.connR, p, opts); return },
			)
			if err != nil {
				x.close()
				return nil, err
			}
			return x, nil
		},
	}
}

type extendInst struct {
	rec          *recorder
	backend      string
	lane         int
	s            extension.Sender
	r            extension.Receiver
	connS, connR transport.Conn
	delta        block.Block
	batch        int
	cost         extension.Cost
	// stats0, flights0 and iters bracket the timed window's transcript
	// for the exact cost-model check.
	stats0   transport.Stats
	flights0 int
	iters    int
}

func (x *extendInst) clients() int { return 1 }

func (x *extendInst) op(_, iter int) (sample, error) {
	if iter == 0 {
		x.stats0, x.flights0 = x.connS.Stats(), x.flights()
	}
	root := x.rec.begin(opSpan, span{}, iter, x.lane)
	ext := x.rec.begin("extension.extend", root, iter, x.lane)
	t0 := time.Now()
	z, bits, y, err := extension.ExtendLockstep(x.s, x.r)
	busy := time.Since(t0)
	ext.end()
	if err != nil {
		root.end()
		return sample{busy: busy}, err
	}
	chk := x.rec.begin("verify", root, iter, x.lane)
	// Full check on the un-timed iterations and the first timed one.
	ok := verified(x.delta, x.batch, iter <= 0, z, bits, y)
	chk.end()
	root.end()
	if iter >= 0 {
		x.iters++
	}
	return sample{busy: busy, cots: int64(len(z)), failed: !ok}, nil
}

func (x *extendInst) wire() int64 { return x.connS.Stats().TotalBytes() }

// flights counts one-way message flights: each endpoint's turns into
// sending.
func (x *extendInst) flights() int { return x.connS.Stats().Flights + x.connR.Stats().Flights }

// finish holds the timed transcript against the backend's own Cost
// model byte for byte; a mismatch is a failure, not a footnote.
func (x *extendInst) finish(nodes []node) (int, map[string]float64) {
	st := x.connS.Stats()
	moved := st.TotalBytes() - x.stats0.TotalBytes()
	exact := moved == int64(x.iters)*x.cost.ExtendBytes
	layers := map[string]float64{"extension.cost_model_exact": 0}
	failed := 1
	if exact {
		layers["extension.cost_model_exact"], failed = 1, 0
	}
	if x.iters > 0 {
		layers["transport.flights_per_extend"] = float64(x.flights()-x.flights0) / float64(x.iters)
		layers["transport.bytes_per_extend"] = float64(moved) / float64(x.iters)
	}
	// The backend's own phase spans (Options.Trace) on the critical
	// lane. The residual is the Extend span's self time: what is left
	// after its SPCOT and LPN (or expand and transpose) children.
	if ext := durations(nodes, "extend", x.lane); len(ext) > 0 {
		layers[x.backend+".extend_s"] = median(ext)
		switch x.backend {
		case "ferret":
			layers["ferret.residual_pct"] = 100 * selfShare(nodes, "extend", x.lane)
		case "softspoken":
			layers["softspoken.expand_s"] = median(durations(nodes, "softspoken.expand", x.lane))
			layers["softspoken.transpose_s"] = median(durations(nodes, "softspoken.transpose", x.lane))
		}
	}
	return failed, layers
}

func (x *extendInst) close() {
	_ = x.connS.Close()
	_ = x.connR.Close()
}
