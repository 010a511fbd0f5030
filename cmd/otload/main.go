// Command otload load-tests a dispenser fleet (or a single dispenser)
// over real TCP: it sustains many concurrent sessions across a bounded
// set of connections, alternates sender/receiver draws, and reports
// draw-latency percentiles, typed shed counts, and the per-shard
// session balance as JSON. It is the smoke driver for real otd
// processes (scripts/ci.sh); fleet numbers worth quoting come from the
// fleet-steady and fleet-churn workloads of `go run ./benchmark`.
//
// Usage:
//
//	otload -addr 127.0.0.1:7600 -sessions 1024 -conns 64 -out report.json
//	otload -addr 127.0.0.1:7600 -quick          # CI smoke sizing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ironman/internal/otserv/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7600", "fleet router or dispenser address")
		sessions = flag.Int("sessions", 1024, "concurrent sessions to sustain")
		conns    = flag.Int("conns", 64, "client connections to spread sessions over")
		draws    = flag.Int("draws", 8, "draws per session (alternating sender/receiver)")
		drawN    = flag.Int("n", 128, "correlated OTs per draw")
		params   = flag.String("params", "", "parameter set name (empty = server default)")
		depth    = flag.Int("depth", 256, "requested prefetch depth per session")
		tenants  = flag.Int("tenants", 4, "distinct tenant principals (0 = anonymous)")
		lease    = flag.Duration("lease", 0, "requested session lease (0 = server default)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "whole-run deadline (hang fails the run)")
		quick    = flag.Bool("quick", false, "CI sizing: 96 sessions over 12 conns, 4 draws")
		out      = flag.String("out", "", "also write the JSON report to this file")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Addr:            *addr,
		Sessions:        *sessions,
		Conns:           *conns,
		DrawsPerSession: *draws,
		DrawN:           *drawN,
		Params:          *params,
		Depth:           *depth,
		Tenants:         *tenants,
		Lease:           *lease,
		Timeout:         *timeout,
	}
	if *quick {
		cfg.Sessions = 96
		cfg.Conns = 12
		cfg.DrawsPerSession = 4
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "otload: %v\n", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "otload: encode report: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "otload: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	// A run that opened nothing is a failed run even if nothing hung.
	if rep.SessionsOpened == 0 {
		fmt.Fprintln(os.Stderr, "otload: no session opened")
		os.Exit(1)
	}
}
