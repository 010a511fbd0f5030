package experiments

import (
	"fmt"
	"strings"

	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/prg"
	"ironman/internal/sim/cpu"
	"ironman/internal/sim/nmp"
	"ironman/internal/sim/roofline"
	"ironman/internal/simnet"
	"ironman/internal/spcot"
)

// ---------------------------------------------------------------------
// Figure 1(b): CPU OTE latency vs #OTs with Init/SPCOT/LPN breakdown.
// ---------------------------------------------------------------------

// Fig1bRow is one parameter set's single-execution CPU latency.
type Fig1bRow struct {
	ParamSet string
	Init     float64
	SPCOT    float64
	LPN      float64
}

// fig1b prices one single-threaded protocol execution per set.
func fig1b(bool) (Result, error) {
	var rows []Fig1bRow
	for _, p := range ferret.Table4 {
		b := cpu.OTELatency(p, 1, true)
		rows = append(rows, Fig1bRow{ParamSet: p.Name, Init: b.Init, SPCOT: b.SPCOT, LPN: b.LPN})
	}
	last := rows[len(rows)-1]
	return Result{rows, renderFig1b(rows), Headline{"s@2^24", last.Init + last.SPCOT + last.LPN,
		"~2.8 s (and ~0.5 s at 2^20), the anchors sim/cpu is calibrated against"}}, nil
}

func renderFig1b(rows []Fig1bRow) string {
	var b strings.Builder
	b.WriteString("Figure 1(b): CPU OTE latency per protocol execution (single thread)\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s\n", "set", "init(s)", "spcot(s)", "lpn(s)", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8.3f %8.3f %8.3f %8.3f\n", r.ParamSet, r.Init, r.SPCOT, r.LPN, r.Init+r.SPCOT+r.LPN)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 1(c): roofline.
// ---------------------------------------------------------------------

// fig1c places SPCOT and LPN on the host roofline.
func fig1c(bool) (Result, error) {
	pts := roofline.Figure1c(roofline.Xeon5220R)
	return Result{pts, renderFig1c(pts), Headline{"spcot/lpn-x", pts[0].Attainable / pts[len(pts)-1].Attainable,
		"SPCOT at the compute roof, LPN memory-bound far below it"}}, nil
}

func renderFig1c(pts []roofline.Point) string {
	var b strings.Builder
	m := roofline.Xeon5220R
	fmt.Fprintf(&b, "Figure 1(c): roofline (peak %.2f G AES/s, BW %.0f GB/s, ridge %.3f AES/B)\n",
		m.PeakAESPerSec/1e9, m.MemBandwidth/1e9, m.RidgeIntensity())
	for _, p := range pts {
		bound := "memory-bound"
		if p.ComputeBound {
			bound = "compute-bound"
		}
		fmt.Fprintf(&b, "  %-12s intensity=%8.4f AES/B  attainable=%8.3f G AES/s  %s\n",
			p.Name, p.Intensity, p.Attainable/1e9, bound)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 7: m-ary tree ops / communication / latency.
// ---------------------------------------------------------------------

// Fig7Row is one arity design point for ℓ=4096, t=480 trees.
type Fig7Row struct {
	M          int
	Ops        int     // PRG core calls for the whole batch (Fig 7a)
	CommBytes  int64   // SPCOT wire bytes for the batch (Fig 7b)
	WANSeconds float64 // Fig 7c
	LANSeconds float64
}

// fig7 states the SPCOT exchange's wire bytes at each arity
// (spcot.ExchangeBytes, which spcot's tests pin against a measured
// exchange) and prices them on the two networks (plus the compute
// time).
func fig7(quick bool) (Result, error) {
	const leaves = 4096
	trees := 480
	if quick {
		trees = 48
	}
	var rows []Fig7Row
	for _, m := range []int{2, 4, 8, 16, 32} {
		p := prg.New(prg.ChaCha8, m)
		ops := trees * ggm.OpsForTree(p, leaves)

		// All t trees' puncturing is one exchange (spcot batches every
		// tree's level messages, as Ferret does), so the batch is one
		// round trip: the receiver's correction bits out, the sender's
		// reply sections back.
		batchBytes := spcot.ExchangeBytes(p, leaves, trees)
		const batchRoundTrips = 1

		// Latency: network + compute (compute at the software
		// baseline's per-AES rate, each ChaCha8 core call charged as one
		// AES call, so the trend matches Fig 7c's protocol-latency
		// curves).
		compute := float64(ops) * cpu.AESCycles / (cpu.FreqGHz * 1e9)
		rows = append(rows, Fig7Row{
			M:          m,
			Ops:        ops,
			CommBytes:  batchBytes,
			WANSeconds: simnet.WAN.Latency(batchBytes, batchRoundTrips) + compute,
			LANSeconds: simnet.LAN.Latency(batchBytes, batchRoundTrips) + compute,
		})
	}
	return Result{rows, renderFig7(rows), Headline{"m4-op-reduction-x", float64(rows[0].Ops) / float64(rows[1].Ops),
		"2.99x fewer PRG calls at m=4 than m=2"}}, nil
}

func renderFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: m-ary tree expansion (ℓ=4096, batch of trees)\n")
	fmt.Fprintf(&b, "%-4s %12s %12s %10s %10s\n", "m", "ops", "comm(MB)", "WAN(s)", "LAN(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %12d %12.2f %10.3f %10.3f\n",
			r.M, r.Ops, float64(r.CommBytes)/1e6, r.WANSeconds, r.LANSeconds)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8: GGM expansion schedules.
// ---------------------------------------------------------------------

// Fig8Row is one schedule's pipeline statistics.
type Fig8Row struct {
	Schedule string
	Trees    int
	nmp.PipelineStats
}

// fig8 compares the three schedules on a batch of 4-ary trees.
func fig8(bool) (Result, error) {
	arities := ggm.LevelArities(4096, 4)
	var rows []Fig8Row
	var util float64
	for _, trees := range []int{1, 4, 16} {
		for _, s := range []nmp.Schedule{nmp.DepthFirst, nmp.BreadthFirst, nmp.Hybrid} {
			st := nmp.SimulateSchedule(nmp.PipelineConfig{Arities: arities, Trees: trees}, s)
			rows = append(rows, Fig8Row{Schedule: s.String(), Trees: trees, PipelineStats: st})
			if s == nmp.Hybrid && trees == 16 {
				util = st.Utilization
			}
		}
	}
	return Result{rows, renderFig8(rows), Headline{"hybrid-util-%@16trees", util * 100,
		"100%: the hybrid schedule keeps the pipeline full"}}, nil
}

func renderFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: GGM expansion schedules (8-stage ChaCha pipeline, 4-ary ℓ=4096)\n")
	fmt.Fprintf(&b, "%-14s %6s %8s %8s %8s %6s %10s\n", "schedule", "trees", "ops", "cycles", "bubbles", "util", "peak buf")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %8d %8d %8d %5.1f%% %10d\n",
			r.Schedule, r.Trees, r.Ops, r.Cycles, r.Bubbles, r.Utilization*100, r.PeakBuffer)
	}
	return b.String()
}
