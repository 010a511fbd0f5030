// Command ironman-bench regenerates the paper's tables and figures
// from experiments.All.
//
// Usage:
//
//	ironman-bench [-quick] [-exp name[,name...]] [-json]
//
// -exp takes a comma-separated list of experiment names or "all" (the
// default); `-exp list` prints every experiment with its one-line
// description and exits. Each rendered table is followed by the
// experiment's headline quantity with the paper's reported value
// beside it.
//
// With -json the selected experiments are emitted as one JSON
// document on stdout — {"meta": {...}, "experiments": {name:
// {"seconds": wall, "data": rows, "headline": {...}}}}.
//
// Measured protocol throughput (COT/s, AND/s, triples/s, fleet
// latency) is not here: `go run ./benchmark` is its one source.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ironman/internal/experiments"
)

func main() {
	os.Exit(run(experiments.All, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters: it returns the
// exit status (2 for a usage error, 1 for a failed experiment).
func run(all []experiments.Experiment, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ironman-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced sample sizes")
	exp := fs.String("exp", "all", "experiment(s) to run, comma-separated; \"list\" prints them")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *exp == "list" {
		// Machine-readable: one "name\tdescription" line per experiment.
		for _, e := range all {
			fmt.Fprintf(stdout, "%s\t%s\n", e.Name, e.Desc)
		}
		return 0
	}

	// Every requested name must exist: a typo in one list entry fails
	// the run instead of silently dropping that experiment.
	names := []string{"all"}
	for _, e := range all {
		names = append(names, e.Name)
	}
	sel := make(map[string]bool)
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(names, name) {
			fmt.Fprintf(stderr, "unknown experiment %q (valid: %s list)\n", name, strings.Join(names, " "))
			return 2
		}
		sel[name] = true
	}
	if len(sel) == 0 {
		fmt.Fprintf(stderr, "no experiment selected by %q (valid: %s list)\n", *exp, strings.Join(names, " "))
		return 2
	}

	type result struct {
		Seconds  float64              `json:"seconds"`
		Data     any                  `json:"data"`
		Headline experiments.Headline `json:"headline"`
	}
	results := make(map[string]result)
	for _, e := range all {
		if !sel["all"] && !sel[e.Name] {
			continue
		}
		start := time.Now()
		r, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		if *jsonOut {
			results[e.Name] = result{time.Since(start).Seconds(), r.Rows, r.Headline}
			continue
		}
		h := r.Headline
		fmt.Fprintf(stdout, "%s  headline: %s = %.4g (paper: %s)\n", r.Text, h.Metric, h.Value, h.Paper)
	}
	if *jsonOut {
		doc := map[string]any{
			"meta": map[string]any{
				"quick":     *quick,
				"generated": time.Now().UTC().Format(time.RFC3339),
			},
			"experiments": results,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
