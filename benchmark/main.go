// Command benchmark is the repository's one benchmark: six named
// closed-loop workloads (correlation production, PPML consumption,
// fleet serving), every output verified, every end-to-end metric
// printed by name and unit with host/commit meta, and a separate
// traced pass that attributes time to each module from outside.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory explains the metrics and how to read the trace.
//
//	go run ./benchmark                      # all workloads, 3 rounds
//	go run ./benchmark -trace out.json      # traced pass, per-layer numbers
//	go run ./benchmark -check-repeat        # two sets, compared to the bounds
//	go run ./benchmark -workload ferret-extend -seed 7 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ironman/internal/ferret"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool    // better direction
	bound      float64 // share of the parent's median it may worsen by
}

// endToEnd is BENCHMARK.json's end_to_end list; every workload reports
// every one of them. TestBenchmarkJSON keeps the two in step. A metric
// has one bound for all six workloads, so the noisiest workload sets
// it: wire bytes repeat to the sixth digit; the medians of ten-run sets
// of the timing metrics drifted up to 23 % on the reference VM. Memory
// is the mean resident set over the window: the peak (VmHWM) spread
// 22 % on fleet-churn and is per-layer, runtime.peak_rss_mb (README.md
// has the measurements).
var endToEnd = []metricDef{
	{"cot_per_s", "COT/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"wire_bytes_per_cot", "B", false, 0.001},
	{"setup_s", "s", false, 0.25},
	{"rss_mean_mb", "MB", false, 0.25},
}

// workloads are the six fixed load shapes, in report order.
var workloads = []*workload{
	extendWorkload("ferret-extend", "ferret", ferret.ReceiverTID,
		[]probe{probePRG, probeGGM, probeMPCOT, probeLPN, probeBase, probePipeRTT},
		"default backend, Table-4 2^20, Workers 2: real init over a pipe then ExtendLockstep; LPN encode and SPCOT/GGM do nearly all the work (the paper's headline)"),
	extendWorkload("softspoken-extend", "softspoken", ferret.SenderTID,
		[]probe{probePRG, probeBase, probePipeRTT},
		"same shape and batch on the softspoken backend: no LPN at all, transpose and GGM expand instead; mechanism for transpose work, bypass for LPN work"),
	aesWorkload,
	mlpWorkload,
	fleetSteady,
	fleetChurn,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process and print its result line (default: all, each in a fresh subprocess)")
		gen     = flag.Uint64("seed", 1, "input-generation seed: plaintexts, weights, tenants, dealt Options.Seed")
		seconds = flag.Float64("seconds", 12, "measuring window per run")
		trace   = flag.String("trace", "0", "0: untraced end-to-end pass; 1: traced per-layer pass; anything else: traced pass, Chrome trace JSON written to that path")
		smoke   = flag.Bool("smoke", false, "CI-scale sizes (whole set < 5 s); numbers are not comparable")
		repeat  = flag.Bool("check-repeat", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	cfg := config{gen: *gen, window: time.Duration(*seconds * float64(time.Second)), smoke: *smoke}
	if *trace != "0" && *trace != "" {
		cfg.traced = true
		if *trace != "1" {
			cfg.tracePath = *trace
		}
	}
	var err error
	switch {
	case *name != "":
		err = runOne(*name, cfg)
	case *repeat:
		err = checkRepeat(cfg)
	case cfg.traced:
		err = traceReport(cfg)
	default:
		err = report(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	gen       uint64
	window    time.Duration
	smoke     bool
	traced    bool
	tracePath string
}

// line is the last line of a single-workload run: the result contract
// of BENCHMARK.json's driver.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line a single-workload run prints just before
// its result line; the all-workloads report reads sample counts and
// tails from it.
const detailPrefix = "#detail "

// runOne is the single-workload mode (the subprocess of every other
// mode, and what BENCHMARK.json's command runs).
func runOne(name string, cfg config) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.traced {
		return runTraced(w, cfg)
	}
	res, err := measure(w, &env{gen: cfg.gen, smoke: cfg.smoke}, cfg.window, setups)
	if err != nil {
		return err
	}
	return printResult(res, endToEnd, res.Metrics)
}

// printResult prints the detail line and then the result line: defs
// read from values, every one of them, in the contract's shape.
func printResult(res *result, defs []metricDef, values map[string]float64) error {
	out := line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range defs {
		out.Metrics[m.name] = valueUnit{values[m.name], m.unit}
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, detail, last)
	return nil
}
