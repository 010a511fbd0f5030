package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ironman/internal/aesprg"
	"ironman/internal/block"
)

// perLayer is BENCHMARK.json's per_layer list: every traced run prints
// every one of them, 0 where the workload does not reach the layer
// (which is itself the bypass prediction for that pairing). The module
// name is the prefix. README.md has the layer -> end-to-end table.
var perLayer = []metricDef{
	{name: "prg.chacha8x4_ns_per_block", unit: "ns"},
	{name: "prg.aes2_ns_per_block", unit: "ns"},
	{name: "aesprg.hash_ns_per_block", unit: "ns"},
	{name: "ggm.expand_ns_per_leaf", unit: "ns"},
	{name: "ggm.reconstruct_ns_per_leaf", unit: "ns"},
	{name: "spcot.tree_us", unit: "us"},
	{name: "mpcot.busy_s", unit: "s"},
	{name: "mpcot.flights", unit: "count"},
	{name: "mpcot.wire_bytes", unit: "B"},
	{name: "lpn.codegen_s", unit: "s"},
	{name: "lpn.encode_blocks_s", unit: "s"},
	{name: "lpn.encode_bits_s", unit: "s"},
	{name: "lpn.encode_blocks_gbps", unit: "GB/s", higher: true},
	{name: "baseot.setup_ms", unit: "ms"},
	{name: "iknp.extend_ns_per_ot", unit: "ns"},
	{name: "ferret.extend_s", unit: "s"},
	{name: "ferret.residual_pct", unit: "%"},
	{name: "softspoken.extend_s", unit: "s"},
	{name: "softspoken.expand_s", unit: "s"},
	{name: "softspoken.transpose_s", unit: "s"},
	{name: "extension.cost_model_exact", unit: "0/1", higher: true},
	{name: "transport.pipe_rtt_us", unit: "us"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.flights_per_extend", unit: "count"},
	{name: "transport.bytes_per_extend", unit: "B"},
	{name: "pool.draw_prewarmed_ns", unit: "ns"},
	{name: "pool.blocked_draw_share", unit: "share"},
	{name: "pool.blocked_time_s", unit: "s"},
	{name: "pool.refills", unit: "count", higher: true},
	{name: "cot.chosen_bits_ns_per_ot", unit: "ns"},
	{name: "cot.chosen_words_ns_per_ot", unit: "ns"},
	{name: "gmw.and_ns_per_gate", unit: "ns"},
	{name: "gmw.exchanges", unit: "count"},
	{name: "gmw.wire_bytes_per_and", unit: "B"},
	{name: "circuit.compile_s", unit: "s"},
	{name: "circuit.eval_s", unit: "s"},
	{name: "circuit.local_share", unit: "share"},
	{name: "arith.triples_per_s", unit: "1/s", higher: true},
	{name: "arith.matmul_s", unit: "s"},
	{name: "arith.a2b_s", unit: "s"},
	{name: "arith.b2a_s", unit: "s"},
	{name: "arith.wire_bytes_per_triple", unit: "B"},
	{name: "session.open_ms", unit: "ms"},
	{name: "session.draw_us", unit: "us"},
	{name: "otserv.hello_direct_ms", unit: "ms"},
	{name: "otserv.draw_direct_us", unit: "us"},
	{name: "router.hop_hello_ms", unit: "ms"},
	{name: "router.hop_draw_us", unit: "us"},
	{name: "otserv.first_draw_ms", unit: "ms"},
	{name: "otserv.close_ms", unit: "ms"},
	{name: "otserv.hello_p50_ms", unit: "ms"},
	{name: "otserv.hello_p90_ms", unit: "ms"},
	{name: "otserv.draw_p50_ms", unit: "ms"},
	{name: "otserv.draw_p99_ms", unit: "ms"},
	{name: "otserv.sheds", unit: "count"},
	{name: "otserv.lease_errors", unit: "count"},
	{name: "router.balance_max_over_even", unit: "ratio"},
	{name: "runtime.alloc_bytes_per_cot", unit: "B"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.peak_rss_mb", unit: "MB"},
	{name: "obs.trace_overhead_pct", unit: "%"},
	{name: "obs.op_self_pct", unit: "%"},
}

// probeDomain separates the probes' input stream from the workloads'.
const probeDomain = 0x70726f6265

// tracedResult is what one traced single-workload run found.
type tracedResult struct {
	ref  *result // the untraced reference run
	res  *result // the traced run
	rows []layerRow
}

// offClock names the benchmark's own spans inside an op span that lie
// outside the op's timed part: output checks, and the dealing that
// stands in for Extend on aes-circuit.
var offClock = map[string]bool{"verify": true, "cot.deal": true}

// tracePass is the traced pass for one workload: an untraced reference
// run, then a run of the same shape with the recorder attached to the
// benchmark's spans and to the program's own hooks (half the window
// each), then the workload's probes. Tracing overhead is the traced
// run's cot_per_s against the reference's.
func tracePass(w *workload, cfg config) (*tracedResult, *recorder, error) {
	ref, err := measure(w, &env{gen: cfg.gen, smoke: cfg.smoke}, cfg.window/2, 1)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	res, err := measure(w, &env{gen: cfg.gen, smoke: cfg.smoke, rec: rec}, cfg.window/2, 1)
	if err != nil {
		return nil, nil, err
	}
	// The result line counts both runs' operations.
	res.Attempted += ref.Attempted
	res.Failed += ref.Failed
	if untraced := ref.Metrics["cot_per_s"]; untraced > 0 {
		res.Layers["obs.trace_overhead_pct"] = 100 * (untraced - res.Metrics["cot_per_s"]) / untraced
	}
	// The op spans are complete; what follows records probe spans only.
	nodes := spanTree(rec.tr.Events())
	px := &probeCtx{rec: rec, smoke: cfg.smoke, layers: res.Layers,
		stream: aesprg.NewStream(block.New(cfg.gen, probeDomain))}
	for _, p := range w.probes {
		if err := p(px); err != nil {
			return nil, nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
	}
	rows := layerTable(nodes, w.lane)
	for _, r := range rows {
		if r.name == opSpan && r.totalUS > 0 {
			res.Layers["obs.op_self_pct"] = 100 * r.selfUS / r.totalUS
		}
	}
	return &tracedResult{ref: ref, res: res, rows: rows}, rec, nil
}

// runTraced is the single-workload traced mode: layer table and
// residual on stderr, every per-layer metric on the result line.
func runTraced(w *workload, cfg config) error {
	tr, rec, err := tracePass(w, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "\n%s: layers on the critical lane\n", w.name)
	printLayerTable(os.Stderr, tr.rows)
	printResidual(tr)
	if cfg.tracePath != "" {
		path := tracePathFor(cfg.tracePath, w.name)
		if err := rec.tr.WriteFile(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (load in ui.perfetto.dev)\n", path)
	}
	return printResult(tr.res, perLayer, tr.res.Layers)
}

// printResidual makes "the layers add up to the whole" a number: the
// untraced reference's mean op latency against the mean time the layer
// spans cover inside a traced op's timed part. What is left is time no
// layer span covers, less what recording added to the layers.
func printResidual(tr *tracedResult) {
	var op layerRow
	var off float64
	for _, r := range tr.rows {
		switch {
		case r.name == opSpan:
			op = r
		case offClock[r.name]:
			off += r.totalUS
		}
	}
	if op.n == 0 {
		return
	}
	n := float64(op.n) * 1e3
	covered := (op.totalUS - op.selfUS - off) / n
	untraced := tr.ref.Metrics["op_mean_ms"]
	fmt.Fprintf(os.Stderr, "op span: mean %.4g ms over %d traced ops; layer spans cover %.4g ms of it, %.4g ms on the clock; no span covers %.4g ms (%.2f %%)\n",
		op.totalUS/n, op.n, (op.totalUS-op.selfUS)/n, covered, op.selfUS/n, tr.res.Layers["obs.op_self_pct"])
	fmt.Fprintf(os.Stderr, "untraced op: mean %.4g ms over %d ops; residual against the on-clock layer spans %.4g ms (%.2f %%)\n",
		untraced, tr.ref.Samples, untraced-covered, 100*(untraced-covered)/untraced)
	fmt.Fprintf(os.Stderr, "trace overhead: %.2f %% (cot_per_s untraced %.6g, traced %.6g)\n",
		tr.res.Layers["obs.trace_overhead_pct"], tr.ref.Metrics["cot_per_s"], tr.res.Metrics["cot_per_s"])
}

// tracePathFor puts the workload's name before the extension:
// out.json -> out.ferret-extend.json.
func tracePathFor(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}
