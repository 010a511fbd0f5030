package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// meta is the host/commit block printed on every report: enough to
// tell whether two reports are comparable at all.
type meta struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	GoVersion  string            `json:"go"`
	Commit     string            `json:"commit"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds_per_run"`
	Rounds     int               `json:"rounds"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workers    int               `json:"workers"`
	Sizes      map[string]any    `json:"sizes"`
	Why        map[string]string `json:"why"`
}

func collectMeta(cfg config) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit(), Seed: cfg.gen,
		Seconds: cfg.window.Seconds(), Rounds: rounds, Smoke: cfg.smoke, Workers: workers,
		Sizes: map[string]any{}, Why: map[string]string{},
	}
	for _, w := range workloads {
		m.Sizes[w.name] = w.sizes(cfg.smoke)
		m.Why[w.name] = w.why
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or asked of git
// (go run does not stamp); "unknown" outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printMeta(m meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", b)
	return nil
}

// childTimeout bounds one workload subprocess.
const childTimeout = 170 * time.Second

// runChild runs one workload in a fresh subprocess of this binary (so
// its resident memory is that workload's alone and no run inherits
// another's heap) and parses its detail line. The child's stderr passes through.
func runChild(w *workload, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
		if cfg.tracePath != "" {
			trace = cfg.tracePath
		}
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.gen, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64), "-trace", trace}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var res result
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", w.name, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s: no detail line in child output", w.name)
}

// set is one pass over every workload, rounds times round-robin
// (so drift in the host lands on every workload alike).
type set map[string][]*result

func runSet(cfg config) (set, error) {
	s := set{}
	for round := 0; round < rounds; round++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", round+1, rounds, w.name)
			res, err := runChild(w, cfg)
			if err != nil {
				return nil, err
			}
			s[w.name] = append(s[w.name], res)
		}
	}
	return s, nil
}

// runValue is the value a report quotes for repeated runs: the median
// of the per-run values. Each of those is already a median or a rate
// over its own run, so this is the median of medians, and one
// disturbed run moves it by at most one rank.
func runValue(runs []*result, pick func(*result) (float64, bool)) float64 {
	return median(values(runs, pick))
}

// values lists one metric's per-run values; pick reads it from a run.
func values(runs []*result, pick func(*result) (float64, bool)) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := pick(r); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func endToEndOf(name string) func(*result) (float64, bool) {
	return func(r *result) (float64, bool) { v, ok := r.Metrics[name]; return v, ok }
}

func layerOf(name string) func(*result) (float64, bool) {
	return func(r *result) (float64, bool) { v, ok := r.Layers[name]; return v, ok }
}

// failures totals a workload's failed and attempted operations.
func failures(runs []*result) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return
}

// report is the default mode: every workload, every end-to-end metric
// by name and unit, the value being the median of the per-run medians.
func report(cfg config) error {
	if err := printMeta(collectMeta(cfg)); err != nil {
		return err
	}
	s, err := runSet(cfg)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		runs := s[w.name]
		fmt.Printf("\n%s — %s\n", w.name, w.why)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, m := range endToEnd {
			vs := values(runs, endToEndOf(m.name))
			lo, hi := slices.Min(vs), slices.Max(vs)
			note := ""
			if m.name == "op_p50_ms" {
				// The tail quoted is the highest percentile with at
				// least ten samples beyond it in a run of this length.
				last := runs[len(runs)-1]
				note = fmt.Sprintf("n=%d per run", last.Samples)
				if last.TailPM > 0 {
					tails := runValue(runs, func(r *result) (float64, bool) { return r.TailMS, r.TailPM == last.TailPM })
					note += fmt.Sprintf(", p%g %.4g ms", float64(last.TailPM)/10, tails)
				}
			}
			fmt.Fprintf(tw, "  %s\t%.6g %s\truns %.6g..%.6g\tbound %g %%\t%s\n", m.name, median(vs), m.unit, lo, hi, 100*m.bound, note)
		}
		for _, a := range w.aliases {
			fmt.Fprintf(tw, "  %s\t%.6g %s\t= %s x %g\t\t\n", a.name, runValue(runs, endToEndOf(a.of))*a.scale, a.unit, a.of, a.scale)
		}
		failed, attempted := failures(runs)
		fmt.Fprintf(tw, "  failed_share\t%.6g\t%d of %d operations\t\t\n", float64(failed)/float64(attempted), failed, attempted)
		if err := tw.Flush(); err != nil {
			return err
		}
		bad += failed
	}
	if bad > 0 {
		return fmt.Errorf("%d operations failed", bad)
	}
	return nil
}

// traceReport is the traced pass over every workload: each child
// prints its layer table and residual; this prints every per-layer
// metric with its run-to-run range.
func traceReport(cfg config) error {
	if err := printMeta(collectMeta(cfg)); err != nil {
		return err
	}
	s, err := runSet(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\nmetric\tunit")
	for _, w := range workloads {
		fmt.Fprintf(tw, "\t%s", w.name)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s", m.name, m.unit)
		for _, w := range workloads {
			fmt.Fprintf(tw, "\t%s", cell(values(s[w.name], layerOf(m.name))))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// cell renders one per-layer metric on one workload: the median with
// its run-to-run range, "-" where the workload does not reach the layer.
func cell(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	lo, hi := slices.Min(vs), slices.Max(vs)
	switch {
	case lo == 0 && hi == 0:
		return "-"
	case len(vs) == 1:
		return fmt.Sprintf("%.4g", vs[0])
	}
	return fmt.Sprintf("%.4g [%.4g..%.4g]", median(vs), lo, hi)
}

// checkRepeat runs the untraced set twice on the same code and holds
// every end-to-end metric x workload against its own bound.
func checkRepeat(cfg config) error {
	if err := printMeta(collectMeta(cfg)); err != nil {
		return err
	}
	a, err := runSet(cfg)
	if err != nil {
		return err
	}
	b, err := runSet(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tset A\tset B\tspread\tbound\t")
	var over []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := runValue(a[w.name], endToEndOf(m.name)), runValue(b[w.name], endToEndOf(m.name))
			d := relDiff(va, vb)
			verdict := ""
			if d > m.bound {
				verdict = "OVER"
				over = append(over, w.name+"/"+m.name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3g %%\t%g %%\t%s\n", w.name, m.name, va, vb, 100*d, 100*m.bound, verdict)
		}
		fa, na := failures(a[w.name])
		fb, nb := failures(b[w.name])
		fmt.Fprintf(tw, "%s\tfailed_share\t%d/%d\t%d/%d\t\t\t\n", w.name, fa, na, fb, nb)
		if fa+fb > 0 {
			over = append(over, w.name+"/failed_share")
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("not repeatable within bound: %s", strings.Join(over, ", "))
	}
	return nil
}
