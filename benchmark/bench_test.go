package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"ironman/internal/obs"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int // per mille; 0 = no tail quoted
	}{
		{n: 20, want: 0},      // p75 leaves 5 beyond
		{n: 39, want: 0},      // p75 leaves 9.75 beyond
		{n: 40, want: 750},    // p75 leaves exactly 10
		{n: 99, want: 750},    // p90 leaves 9.9
		{n: 100, want: 900},   // p90 leaves exactly 10
		{n: 200, want: 950},   // p95 leaves 10
		{n: 999, want: 950},   // p99 leaves 9.99
		{n: 1000, want: 990},  // p99 leaves 10
		{n: 10000, want: 999}, // p99.9 leaves 10
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pm, v, ok := tail(xs)
		if (c.want == 0) == ok || pm != c.want {
			t.Errorf("n=%d: tail = p%d ok=%v, want p%d", c.n, pm, ok, c.want)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%d = %v has only %d samples beyond it", c.n, pm, v, beyond)
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 = %v, want 90 (nearest rank)", got)
	}
	if got := percentile(xs, 1); got != 10 {
		t.Errorf("p0.1 = %v, want the minimum", got)
	}
}

func TestMedianOfMedians(t *testing.T) {
	run := func(p50 float64) *result { return &result{Metrics: map[string]float64{"op_p50_ms": p50}} }
	pick := endToEndOf("op_p50_ms")
	if got := runValue([]*result{run(2), run(11), run(6.5), run(1)}, pick); got != 4.25 {
		t.Errorf("runValue = %v, want 4.25", got)
	}
	// One disturbed run moves it by at most one rank.
	calm := []*result{run(10), run(11), run(12)}
	disturbed := []*result{run(10), run(11), run(500)}
	if a, b := runValue(calm, pick), runValue(disturbed, pick); a != 11 || b != 11 {
		t.Errorf("calm %v disturbed %v, want 11 both", a, b)
	}
	// A run that did not report the metric is left out, not read as 0.
	if got := runValue([]*result{run(10), {Metrics: map[string]float64{}}, run(12)}, pick); got != 11 {
		t.Errorf("runValue with a gap = %v, want 11", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relDiff(100,110) = %v", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0,0) = %v", got)
	}
	if got := relDiff(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0,1) = %v", got)
	}
}

// ev builds a complete trace event; args mark it as a benchmark span.
func ev(name string, tid int, ts, dur float64, args map[string]any) obs.TraceEvent {
	return obs.TraceEvent{Name: name, Ph: "X", Tid: tid, Ts: ts, Dur: dur, Args: args}
}

func bench(id, parent, iter int) map[string]any {
	return map[string]any{"id": id, "parent": parent, "iter": iter}
}

func TestSpanSelfTime(t *testing.T) {
	events := []obs.TraceEvent{
		ev("op", 1, 0, 100, bench(1, 0, 0)),
		// Two parties side by side: children overlap on [20,50].
		ev("eval", 1, 10, 40, bench(2, 1, 0)),
		ev("eval", 2, 20, 40, bench(3, 1, 0)),
		// A child running past its parent is clipped to it.
		ev("verify", 1, 90, 30, bench(4, 1, 0)),
		// Spans the program emitted itself carry no ids: adopted by the
		// shortest same-lane container, iteration inherited.
		ev("exchange", 1, 15, 10, nil),
		ev("exchange", 1, 30, 10, nil),
		// No container on its lane: stays out of the tree.
		ev("worker", 7, 15, 10, nil),
	}
	nodes := spanTree(events)
	if len(nodes) != 6 {
		t.Fatalf("tree has %d nodes, want 6 (worker lane dropped)", len(nodes))
	}
	self := map[int]float64{}
	byName := map[string][]node{}
	for _, n := range nodes {
		self[n.id] = n.self
		byName[n.name] = append(byName[n.name], n)
	}
	// op: 100 - union([10,50],[20,60],[90,100]) = 100 - 60 = 40.
	if self[1] != 40 {
		t.Errorf("op self = %v, want 40", self[1])
	}
	// eval on lane 1: 40 - two adopted exchanges of 10.
	if self[2] != 20 {
		t.Errorf("eval(lane 1) self = %v, want 20", self[2])
	}
	if self[3] != 40 {
		t.Errorf("eval(lane 2) self = %v, want 40 (nothing adopted)", self[3])
	}
	for _, x := range byName["exchange"] {
		if x.parent != 2 || x.iter != 0 {
			t.Errorf("exchange adopted by %d iter %d, want span 2 iter 0", x.parent, x.iter)
		}
	}
	rows := layerTable(nodes, 1)
	var total float64
	for _, r := range rows {
		total += r.selfUS
	}
	// Lane 1 rows: op 40 + eval 20 + exchanges 20 + verify 30 = 110;
	// the lane-2 eval covered 10 of op that no lane-1 row owns, and
	// verify's overhang is its own.
	if total != 110 {
		t.Errorf("lane-1 self times sum to %v, want 110", total)
	}
	if got := selfShare(nodes, "eval", 1); got != 0.5 {
		t.Errorf("selfShare(eval, lane 1) = %v, want 0.5", got)
	}
}

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this
// package in step: same workloads in the same order, same metrics,
// units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, b.Workloads[i].Name, w.name)
		}
		if len(b.Workloads[i].Why) == 0 || len(b.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(b.Workloads[i].Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better(m.higher) {
				t.Errorf("%s %d: %+v in BENCHMARK.json, {%s %s %s} here", kind, i, g, m.name, m.unit, better(m.higher))
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: bound differs from %v", kind, m.name, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke drives every workload's code path at the -smoke size, the
// untraced pass and the traced one (probes included): outputs must
// verify, every end-to-end metric must be non-zero, and the traced
// pass must produce a span tree whose op spans its layers cover.
func TestSmoke(t *testing.T) {
	cfg := config{gen: 1, window: 60 * time.Millisecond, smoke: true}
	for _, w := range workloads {
		res, err := measure(w, &env{gen: cfg.gen, smoke: true}, cfg.window, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
		if res.Layers != nil {
			t.Errorf("%s: untraced run reported layers", w.name)
		}

		tr, rec, err := tracePass(w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.res.Failed != 0 {
			t.Errorf("%s traced: operations failed", w.name)
		}
		if tr.ref.Layers != nil || !(tr.ref.Metrics["cot_per_s"] > 0) {
			t.Errorf("%s traced: the reference run is not an untraced run", w.name)
		}
		if _, ok := tr.res.Layers["obs.trace_overhead_pct"]; !ok {
			t.Errorf("%s traced: no trace overhead against the reference run", w.name)
		}
		known := map[string]bool{}
		for _, m := range perLayer {
			known[m.name] = true
		}
		for name := range tr.res.Layers {
			if !known[name] {
				t.Errorf("%s: layer metric %q is not in the per_layer list", w.name, name)
			}
		}
		var op *layerRow
		for i := range tr.rows {
			if tr.rows[i].name == opSpan {
				op = &tr.rows[i]
			}
		}
		if op == nil || op.n == 0 {
			t.Fatalf("%s: no op spans on lane %d", w.name, w.lane)
		}
		if op.selfUS > 0.5*op.totalUS {
			t.Errorf("%s: layer spans cover only %.0f %% of the op", w.name, 100*(1-op.selfUS/op.totalUS))
		}
		if len(rec.tr.Events()) == 0 {
			t.Errorf("%s: recorder is empty", w.name)
		}
	}
}

// TestFleetSteadyDispensedSet: only a session's first draw and the
// first draw of the first timed op go into the dispensed set whole;
// every other draw adds its first and last block, so the set does not
// grow with the length of the settle phase or the server's speed.
func TestFleetSteadyDispensedSet(t *testing.T) {
	inst, err := fleetSteady.setup(&env{gen: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	x := inst.(*fleetInst)
	op := func(c, iter int) {
		t.Helper()
		if s, err := x.op(c, iter); err != nil || s.failed {
			t.Fatalf("client %d iter %d: failed=%v err=%v", c, iter, s.failed, err)
		}
	}
	const settle = 20
	for c := 0; c < x.clients(); c++ {
		for i := 0; i <= settle; i++ { // warm-up op, then the settle phase
			op(c, -1)
		}
	}
	want := x.clients() * (x.n + 2*settle)
	if got := len(x.seen.seen); got != want {
		t.Fatalf("after settle: %d blocks in the dispensed set, want %d", got, want)
	}
	op(0, 0)
	op(0, 1)
	want += x.n + 2*(x.burst-1) + 2*x.burst
	if got := len(x.seen.seen); got != want {
		t.Errorf("after two timed ops: %d blocks in the dispensed set, want %d", got, want)
	}
}

func TestTracePathFor(t *testing.T) {
	if got := tracePathFor("out/trace.json", "ferret-extend"); got != "out/trace.ferret-extend.json" {
		t.Errorf("tracePathFor = %q", got)
	}
	if got := tracePathFor("trace", "aes-circuit"); got != "trace.aes-circuit" {
		t.Errorf("tracePathFor without extension = %q", got)
	}
}
