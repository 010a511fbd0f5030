package experiments

import (
	"fmt"
	"strings"

	"ironman/internal/ferret"
	"ironman/internal/ppml"
	"ironman/internal/sim/area"
	"ironman/internal/simnet"
	"ironman/internal/spcot"
)

// ---------------------------------------------------------------------
// Figure 1(a): execution-time breakdown across frameworks and models.
// ---------------------------------------------------------------------

// Fig1aRow is one (framework, model) breakdown.
type Fig1aRow struct {
	Framework string
	Model     string
	Lat       ppml.Latency
}

// fig1a reproduces the breakdown study on the LAN with the CPU OT
// backend (the configuration whose OTE share motivates the paper).
func fig1a(bool) (Result, error) {
	base := ppml.DefaultCPUBaseline()
	var rows []Fig1aRow
	add := func(f ppml.Framework, models ...ppml.Model) {
		for _, m := range models {
			rows = append(rows, Fig1aRow{
				Framework: f.Name, Model: m.Name,
				Lat: ppml.EndToEnd(f, m, simnet.LAN, base),
			})
		}
	}
	add(ppml.Cheetah, ppml.SqueezeNet, ppml.ResNet50, ppml.DenseNet121)
	add(ppml.CrypTFlow2, ppml.SqueezeNet, ppml.ResNet50, ppml.DenseNet121)
	add(ppml.Bolt, ppml.BERTBase, ppml.BERTLarge, ppml.GPT2Large)
	var share float64
	for _, r := range rows {
		share += r.Lat.OTE / r.Lat.Total()
	}
	return Result{rows, renderFig1a(rows), Headline{"mean-OTE-%", 100 * share / float64(len(rows)),
		"OT extension takes 51-69% of end-to-end time"}}, nil
}

func renderFig1a(rows []Fig1aRow) string {
	var b strings.Builder
	b.WriteString("Figure 1(a): execution-time breakdown (LAN, CPU OT backend)\n")
	fmt.Fprintf(&b, "%-11s %-12s %8s %8s %8s %8s %8s\n",
		"framework", "model", "OTE%", "linear%", "comm%", "other%", "total(s)")
	for _, r := range rows {
		t := r.Lat.Total()
		fmt.Fprintf(&b, "%-11s %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.1f\n",
			r.Framework, r.Model,
			100*r.Lat.OTE/t, 100*r.Lat.Linear/t, 100*r.Lat.OnlineComm/t, 100*r.Lat.Other/t, t)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 15: nonlinear-operator microbenchmarks.
// ---------------------------------------------------------------------

// Fig15Row is one (framework, op) pair.
type Fig15Row struct {
	Framework string
	Op        string
	BaseSec   float64
	IronSec   float64
	Speedup   float64
}

// fig15 benches LayerNorm/GELU/Softmax/ReLU batches under EzPC-SiRNN
// and Bolt, CPU vs Ironman OT backends.
func fig15(quick bool) (Result, error) {
	const elems = 1 << 20
	base := ppml.DefaultCPUBaseline()
	iron := ppml.DefaultIronman()
	iron.Cfg.SampleRows = sampleRows(quick)
	var rows []Fig15Row
	bench := func(f ppml.Framework, ops []ppml.Op) {
		for _, op := range ops {
			b := ppml.OperatorBench(f, op, elems, simnet.LAN, base)
			ir := ppml.OperatorBench(f, op, elems, simnet.LAN, iron)
			rows = append(rows, Fig15Row{
				Framework: f.Name, Op: op.String(),
				BaseSec: b.Total(), IronSec: ir.Total(),
				Speedup: b.Total() / ir.Total(),
			})
		}
	}
	bench(ppml.SiRNN, []ppml.Op{ppml.LayerNorm, ppml.GELU, ppml.Softmax, ppml.ReLU})
	bench(ppml.Bolt, []ppml.Op{ppml.LayerNorm, ppml.GELU, ppml.Softmax})
	var mean float64
	for _, r := range rows {
		mean += r.Speedup
	}
	return Result{rows, renderFig15(rows), Headline{"mean-op-speedup-x", mean / float64(len(rows)),
		"3.9-4.4x per operator"}}, nil
}

func renderFig15(rows []Fig15Row) string {
	var b strings.Builder
	b.WriteString("Figure 15: nonlinear operators, 2^20 elements (LAN)\n")
	fmt.Fprintf(&b, "%-11s %-10s %10s %10s %8s\n", "framework", "op", "base(s)", "ironman(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-10s %10.2f %10.2f %7.2fx\n", r.Framework, r.Op, r.BaseSec, r.IronSec, r.Speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 16: unified-architecture MatMul.
// ---------------------------------------------------------------------

// Fig16Row is one matrix dimension.
type Fig16Row struct {
	Dims     string
	CommBase int64
	CommUni  int64
	LatBase  float64
	LatUni   float64
}

// fig16 runs the three §6.4 dimensions on the LAN.
func fig16(bool) (Result, error) {
	var rows []Fig16Row
	for _, d := range []ppml.MatMul{{M: 64, K: 768, N: 768}, {M: 64, K: 768, N: 64}, {M: 64, K: 4096, N: 64}} {
		rows = append(rows, Fig16Row{
			Dims:     fmt.Sprintf("(%d,%d,%d)", d.M, d.K, d.N),
			CommBase: d.CommBytes(false),
			CommUni:  d.CommBytes(true),
			LatBase:  d.Latency(simnet.LAN, false),
			LatUni:   d.Latency(simnet.LAN, true),
		})
	}
	return Result{rows, renderFig16(rows), Headline{"latency-x", rows[0].LatBase / rows[0].LatUni,
		"~1.4x lower latency at 2x less communication"}}, nil
}

func renderFig16(rows []Fig16Row) string {
	var b strings.Builder
	b.WriteString("Figure 16: MatMul with/without unified architecture (LAN)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %10s %10s %8s\n",
		"dims", "comm w/o(MB)", "comm w/(MB)", "ratio", "lat w/o(ms)", "lat w/(ms)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.2f %12.2f %7.2fx %10.2f %10.2f %7.2fx\n",
			r.Dims, float64(r.CommBase)/1e6, float64(r.CommUni)/1e6,
			float64(r.CommBase)/float64(r.CommUni),
			r.LatBase*1e3, r.LatUni*1e3, r.LatBase/r.LatUni)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 5: end-to-end PPML latency.
// ---------------------------------------------------------------------

// Table5Row is one (framework, model, network) comparison.
type Table5Row struct {
	Framework string
	Model     string
	Network   string
	BaseSec   float64
	IronSec   float64
	Speedup   float64
}

// table5 generates the full table.
func table5(quick bool) (Result, error) {
	base := ppml.DefaultCPUBaseline()
	iron := ppml.DefaultIronman()
	iron.Cfg.SampleRows = sampleRows(quick)
	var rows []Table5Row
	var best float64
	for _, e := range ppml.Table5Frameworks() {
		for _, m := range e.Models {
			for _, net := range []simnet.Network{simnet.WAN, simnet.LAN} {
				b, ir, sp := ppml.Speedup(e.FW, m, net, base, iron)
				rows = append(rows, Table5Row{
					Framework: e.FW.Name, Model: m.Name, Network: net.Name,
					BaseSec: b.Total(), IronSec: ir.Total(), Speedup: sp,
				})
				best = max(best, sp)
			}
		}
	}
	return Result{rows, renderTable5(rows), Headline{"best-e2e-x", best,
		"up to 3.40x (BERT-Large)"}}, nil
}

func renderTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: end-to-end PPML latency (seconds)\n")
	fmt.Fprintf(&b, "%-11s %-12s %-20s %10s %10s %8s\n", "framework", "model", "network", "base", "ironman", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-12s %-20s %10.1f %10.1f %7.2fx\n",
			r.Framework, r.Model, r.Network, r.BaseSec, r.IronSec, r.Speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Tables 2, 4, 6.
// ---------------------------------------------------------------------

// table2 compares the two PRG cores.
func table2(bool) (Result, error) {
	cores := []area.PRGCore{area.AES128, area.ChaCha8}
	var b strings.Builder
	b.WriteString("Table 2: PRG comparison (45nm)\n")
	for _, c := range cores {
		fmt.Fprintf(&b, "  %-8s out=%3db area=%.3fmm2 perf/area=%.3fx power=%.2fmW power/block=%.3fx\n",
			c.Name, c.OutputBits, c.AreaMM2, area.PerfPerAreaRatio(c), c.PowerMW, area.PowerPerBlockRatio(c))
	}
	return Result{cores, b.String(), Headline{"chacha8-perf/area-x", area.PerfPerAreaRatio(area.ChaCha8),
		"4.49x"}}, nil
}

// table4 prints the parameter sets with derived budgets.
func table4(bool) (Result, error) {
	var b strings.Builder
	b.WriteString("Table 4: PCG-style OT-extension parameter sets\n")
	fmt.Fprintf(&b, "%-6s %10s %6s %8s %6s %8s %10s %8s\n", "set", "n", "l", "k", "t", "bitsec", "usable", "reserve")
	for _, p := range ferret.Table4 {
		fmt.Fprintf(&b, "%-6s %10d %6d %8d %6d %8.1f %10d %8d\n",
			p.Name, p.N, p.L, p.K, p.T, p.BitSec, p.Usable(), p.Reserve())
	}
	fmt.Fprintf(&b, "  (COT budget per tree: log2(l); e.g. l=4096 -> %d)\n", spcot.COTBudget(4096))
	last := ferret.Table4[len(ferret.Table4)-1]
	return Result{ferret.Table4, b.String(), Headline{"usable/nominal@2^24", float64(last.Usable()) / float64(last.NumOTs),
		"1: the paper counts the 2^24 row at its nominal yield"}}, nil
}

// table6 prints the two design points' overheads.
func table6(bool) (Result, error) {
	designs := []area.Ironman{area.Default256K, area.Default1M}
	var b strings.Builder
	b.WriteString("Table 6: Ironman-NMP design overhead\n")
	for _, ir := range designs {
		fmt.Fprintf(&b, "  %s\n", ir.Report())
	}
	fmt.Fprintf(&b, "  ChaCha8 core: %.3f mm2, %.2f mW\n", area.ChaCha8.AreaMM2, area.ChaCha8.PowerMW)
	return Result{designs, b.String(), Headline{"mm2@1MB", area.Default1M.TotalAreaMM2(),
		"2.995 mm2 and 1.430 W (1.482 mm2, 1.301 W at 256 KB)"}}, nil
}
