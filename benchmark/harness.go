package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ironman"
	"ironman/internal/block"
)

// workers is the Extend/conversion worker count handed to every
// endpoint explicitly. It is never derived from GOMAXPROCS, so a
// number measured here compares with the same number on another host.
const workers = 2

// setups is how many times an untraced run builds its workload before
// measuring, so setup_s is a median and not one draw.
const setups = 5

// rounds is the runs per workload in a set, round-robin; a report
// quotes the median of the per-run values.
const rounds = 3

// opSpan names the root span of one timed closed-loop operation.
const opSpan = "op"

// env is what a workload's set-up sees: the input-generation seed, the
// size class, and the span sink of the traced pass (nil otherwise).
type env struct {
	gen   uint64 // -seed: drives input generation only
	smoke bool
	rec   *recorder
}

// rng is the deterministic input stream for one (workload, client):
// the same -seed gives the same plaintexts, weights and tenants.
func (e *env) rng(stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(e.gen*0x9E3779B97F4A7C15 + uint64(stream) + 1)))
}

// randBlock draws a public 128-bit value (a dealt run's Options.Seed,
// a dealer Δ) from an input stream.
func randBlock(r *rand.Rand) block.Block { return block.New(r.Uint64(), r.Uint64()) }

// sample is one closed-loop operation as the harness records it.
type sample struct {
	// busy is the time spent inside the system under test, the op's
	// latency; the benchmark's own input generation and output checks
	// are outside.
	busy time.Duration
	// cots is the number of correlations the op produced, delivered or
	// consumed — the unit every workload's throughput is counted in.
	cots int64
	// failed marks a wrong output or a typed error.
	failed bool
}

// instance is one built workload: the harness drives op from
// clients() goroutines (never more than two) until the window closes.
type instance interface {
	clients() int
	// op runs one closed-loop operation for client c. iter is -1 for
	// the un-timed warm-up and counts from 0 inside the window. An
	// error ends that client's loop and fails the run.
	op(c, iter int) (sample, error)
	// wire is the bytes moved so far on every conn the workload
	// measures (both directions).
	wire() int64
	// finish runs the after-window checks (failures are returned as a
	// count) and reports the in-situ per-layer numbers; nodes is the
	// span tree of a traced run, nil otherwise.
	finish(nodes []node) (failed int, layers map[string]float64)
	close()
}

// alias prints an end-to-end metric under the name the issue tracker
// uses for it on one workload (and_gates_per_s is cot_per_s / 2 on
// aes-circuit, infer_p50_ms is op_p50_ms on mlp-infer, ...).
type alias struct {
	name, unit string
	of         string
	scale      float64
}

// workload is one named, closed-loop load shape.
type workload struct {
	name    string
	why     string
	aliases []alias
	// lane is the trace lane of the op span and of the party on the
	// critical path; the layer table is read along it.
	lane int
	// probes re-run this workload's layers from outside after the
	// traced window.
	probes []probe
	// sizes describes the shape for the report's meta block.
	sizes func(smoke bool) any
	// setup builds everything the first timed operation needs except
	// the warm-up op, which the harness runs.
	setup func(e *env) (instance, error)
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // timed ops behind op_p50_ms
	TailPM    int                `json:"tail_per_mille,omitempty"`
	TailMS    float64            `json:"tail_ms,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"` // in-situ, traced runs
}

// drive runs the closed loop from every client until the deadline, at
// least one op each, and appends the samples to into. iters holds each
// client's next iteration number and is advanced; nil makes the loop
// un-timed (iter -1 to every op, samples dropped).
func drive(inst instance, deadline time.Time, iters []int, into [][]sample) error {
	errs := make([]error, inst.clients())
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				iter := -1
				if iters != nil {
					iter = iters[c]
					iters[c]++
				}
				s, err := inst.op(c, iter)
				if err != nil {
					errs[c] = err
					s.failed = true
				}
				if iters != nil {
					into[c] = append(into[c], s)
				}
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// throughput is COT/s and ops/s summed over clients (each client's own
// busy time is its clock).
func throughput(perClient [][]sample) (cotRate, opRate float64) {
	for _, ss := range perClient {
		var busy time.Duration
		var cots int64
		for _, s := range ss {
			busy += s.busy
			cots += s.cots
		}
		if busy > 0 {
			cotRate += float64(cots) / busy.Seconds()
			opRate += float64(len(ss)) / busy.Seconds()
		}
	}
	return
}

// settleShare is the part of the window's length the measured instance
// runs un-timed first: pools fill to their prefetch depth, the heap
// reaches its working size and the first-touch page faults are paid,
// so the window measures the steady state a long-lived user sees.
const settleShare = 5 // one fifth

// measure builds w nSetups times (setup_s is the median of build +
// first op; the last build is the one measured), lets it settle, then
// runs its closed loop for the given window.
func measure(w *workload, e *env, window time.Duration, nSetups int) (*result, error) {
	var inst instance
	setupS := make([]float64, 0, nSetups)
	for i := 0; i < nSetups; i++ {
		if inst != nil {
			inst.close()
			// Every build starts from a collected heap, so the set-up
			// samples are alike and the previous instance's garbage is
			// not this one's peak memory.
			runtime.GC()
		}
		root := e.rec.begin("setup", span{}, -1, w.lane)
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if err := drive(inst, t0, nil, nil); err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		root.end()
	}
	defer inst.close()
	if err := drive(inst, time.Now().Add(window/settleShare), nil, nil); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", w.name, err)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wire0 := inst.wire()
	perClient, iters := make([][]sample, inst.clients()), make([]int, inst.clients())
	rss := sampleRSS()
	runErr := drive(inst, time.Now().Add(window), iters, perClient)
	rssMB := rss.stop()
	wireBytes := inst.wire() - wire0
	runtime.ReadMemStats(&ms1)
	var nodes []node
	if e.rec != nil {
		nodes = spanTree(e.rec.tr.Events())
	}
	lateFailed, layers := inst.finish(nodes)
	if e.rec == nil {
		layers = nil
	}

	res := &result{Workload: w.name, Failed: lateFailed, Metrics: map[string]float64{}, Layers: layers}
	var cots int64
	var latMS []float64
	for _, ss := range perClient {
		for _, s := range ss {
			res.Attempted++
			if s.failed {
				res.Failed++
			}
			latMS = append(latMS, ms(s.busy))
			cots += s.cots
		}
	}
	rate, opRate := throughput(perClient)
	res.Samples = len(latMS)
	if pm, v, ok := tail(latMS); ok {
		res.TailPM, res.TailMS = pm, v
	}
	res.Metrics["cot_per_s"] = rate
	res.Metrics["op_p50_ms"] = median(latMS)
	// Not in BENCHMARK.json: what the sessions_per_s alias and the traced
	// pass's residual are read from.
	res.Metrics["ops_per_s"] = opRate
	res.Metrics["op_mean_ms"] = sum(latMS) / float64(len(latMS))
	if cots > 0 {
		res.Metrics["wire_bytes_per_cot"] = float64(wireBytes) / float64(cots)
	}
	res.Metrics["setup_s"] = median(setupS)
	res.Metrics["rss_mean_mb"] = sum(rssMB) / float64(len(rssMB))
	if res.Layers != nil && cots > 0 {
		res.Layers["runtime.peak_rss_mb"] = procStatusMB("VmHWM:")
		res.Layers["runtime.alloc_bytes_per_cot"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(cots)
		res.Layers["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	if runErr != nil {
		// The op that returned it is already counted as failed and its
		// client has stopped; the run reports what it measured.
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, runErr)
	}
	return res, nil
}

// rssEvery is the period of the resident-memory samples behind
// rss_mean_mb: a few hundred per window.
const rssEvery = 50 * time.Millisecond

// rssSampler reads this process's resident set on a ticker while a
// window runs.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var mb []float64
		for {
			select {
			case <-tick.C:
				mb = append(mb, procStatusMB("VmRSS:"))
			case <-s.quit:
				s.done <- append(mb, procStatusMB("VmRSS:"))
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples, at least one.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	return <-s.done
}

// procStatusMB reads one kB field of /proc/self/status (VmRSS, VmHWM)
// in MB; 0 where /proc is absent.
func procStatusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// verified checks one batch of correlations under Δ: all n of them
// when full is set, the first and the last otherwise (a broken
// parallel path cannot post a fast number, and the check stays off
// the clock's scale).
func verified(delta block.Block, n int, full bool, z []block.Block, bits []bool, y []block.Block) bool {
	if n < 1 || len(z) != n || len(bits) != n || len(y) != n {
		return false
	}
	if !full {
		last := n - 1
		z, bits, y = []block.Block{z[0], z[last]}, []bool{bits[0], bits[last]}, []block.Block{y[0], y[last]}
	}
	return ironman.VerifyCOTs(delta, z, bits, y) == nil
}

// both runs the two protocol parties of an in-process pair side by
// side and returns the first error.
func both(a, b func() error) error {
	done := make(chan error, 1)
	go func() { done <- a() }()
	errB := b()
	if errA := <-done; errA != nil {
		return errA
	}
	return errB
}
