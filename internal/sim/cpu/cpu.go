// Package cpu is the analytic model of the software baseline: Ferret
// running on the Table 3 host (24-core Xeon Gold 5220R @ 2.2 GHz with
// AES-NI and DDR4 memory). It replaces the authors' measurements on
// physical hardware (see DESIGN.md, substitution table), and it is the
// one statement of that baseline: the host's parameters are this
// package's constants, and every other model (the roofline, Fig. 7's
// compute, the ppml backends, the A6000 ratio) reads them from here.
//
// The model prices the two protocol phases separately, mirroring the
// Figure 1(b) breakdown:
//
//   - SPCOT is compute-bound: over Ferret's binary AES trees
//     (BaselinePRG), per AES call we charge an *effective* cycle cost
//     that folds in the tree bookkeeping, level-sum XORs and OT message
//     handling that a software GGM implementation pays around the raw
//     AES-NI instruction.
//   - LPN is memory-bound: each of the n·d random vector accesses pays a
//     latency determined by where the k-element vector lives (L2 / LLC /
//     DRAM), divided by an achievable memory-level-parallelism factor,
//     plus the streaming cost of the index matrix itself (the >900 MB
//     footprint of §3.2 at large n).
//
// The constants are calibrated once, here, against the paper's CPU
// anchor points (Fig 1(b): ~0.5 s at 2^20 to ~2.8 s at 2^24, single
// protocol execution, init included); the fig1b headline
// `ironman-bench` prints puts the two side by side.
package cpu

import (
	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/prg"
)

// The Table 3 host, calibrated as described above.
const (
	Cores   = 24
	FreqGHz = 2.2

	// AESCycles is the effective cycle cost of one AES call in the GGM
	// expansion, including tree bookkeeping and OT handling.
	AESCycles = 58
	// StreamBW is the sustainable DRAM streaming bandwidth (bytes/s)
	// for the index matrix and output vectors, of the 76.8 GB/s
	// theoretical peak.
	StreamBW = 60e9
)

const (
	// threadEff is the thread-scaling efficiency of the SPCOT phase.
	threadEff = 0.80

	// Cache capacities (bytes) for placing the LPN input vector: a
	// per-core private L2 slice and the shared LLC.
	l2Bytes  = 2 << 20
	llcBytes = 71 << 20
	// Random-access latencies (ns) per vector element by residency.
	l2LatencyNs   = 6
	llcLatencyNs  = 22
	dramLatencyNs = 85
	// mlp is the per-thread memory-level parallelism of the gather
	// loop; total outstanding accesses are capped per residency level
	// (an LLC sustains more concurrent lookups than the DRAM
	// controller sustains misses).
	mlp         = 4
	llcConcCap  = 32
	dramConcCap = 10
	// pollutionFactor: once the streamed index matrix exceeds this
	// multiple of the LLC, it evicts the input vector and gathers pay
	// DRAM latency — the >900 MB working-set effect of §3.2.
	pollutionFactor = 1.5

	// One-time initialization: 128 P-256 base OTs plus the handshake
	// (seconds), and the IKNP column processing per base COT (ns).
	initBaseSeconds = 0.120
	initPerCOTNs    = 180
)

// A6000Speedup is the paper's second baseline as a ratio: §6.1 reports
// its NVIDIA A6000 implementation at 5.88× the throughput of the
// full-thread host. Nothing else §6.1 gives for the GPU (its latency
// split, its board power) enters a figure, so there is no CUDA
// performance model: a GPU latency is the full-thread CPU latency
// divided by this.
const A6000Speedup = 5.88

// BaselinePRG is the software baseline's GGM tree: Ferret's binary
// trees on AES-NI, the construction AESCycles is calibrated against.
var BaselinePRG = prg.New(prg.AES, 2)

// Breakdown is a phase-by-phase latency estimate in seconds.
type Breakdown struct {
	Init  float64
	SPCOT float64
	LPN   float64
}

// Total returns the summed latency.
func (b Breakdown) Total() float64 { return b.Init + b.SPCOT + b.LPN }

// gatherResidency classifies where the LPN input vector effectively
// lives: by its own footprint, demoted to DRAM when the streamed index
// matrix pollutes the LLC (§3.2's >900 MB working set).
func gatherResidency(params ferret.Params) (latencyNs, concCap float64) {
	vecBytes := int64(params.K) * 16
	codeBytes := int64(params.N) * int64(params.D) * 4
	switch {
	case float64(codeBytes) > pollutionFactor*float64(llcBytes):
		// Pollution raises the *latency* of each gather to DRAM but the
		// misses still enjoy the full controller concurrency (they are
		// independent loads across many banks).
		return dramLatencyNs, llcConcCap
	case vecBytes <= l2Bytes:
		return l2LatencyNs, llcConcCap
	case vecBytes <= llcBytes:
		return llcLatencyNs, llcConcCap
	default:
		return dramLatencyNs, dramConcCap
	}
}

// initSeconds is the one-time initialization before the first
// execution: base OTs plus the IKNP extension of params' reserve.
func initSeconds(params ferret.Params) float64 {
	return initBaseSeconds + float64(params.Reserve())*initPerCOTNs*1e-9
}

// OTELatency estimates one protocol execution (Extend) of params on the
// baseline's binary AES trees across `threads` cores. includeInit adds
// the one-time initialization (only the first execution pays it).
func OTELatency(params ferret.Params, threads int, includeInit bool) Breakdown {
	if threads < 1 {
		threads = 1
	}
	if threads > Cores {
		threads = Cores
	}

	// SPCOT: t trees, both local expansion and the per-level OT work.
	ops := float64(params.T * ggm.OpsForTree(BaselinePRG, params.L))
	spcot := ops * AESCycles / (FreqGHz * 1e9)
	// Amdahl-style thread scaling: the first thread is full speed,
	// extra threads contribute at threadEff.
	spcot /= 1 + float64(threads-1)*threadEff

	// LPN: n·d gathers + streaming the index matrix and output vector.
	// Threads overlap gathers up to the concurrency cap of the level
	// serving the vector.
	gathers := float64(params.N) * float64(params.D)
	lat, concCap := gatherResidency(params)
	conc := float64(threads) * mlp
	if conc > concCap {
		conc = concCap
	}
	gatherSec := gathers * lat * 1e-9 / conc
	streamBytes := float64(params.N) * (float64(params.D)*4 + 2*16)
	streamSec := streamBytes / StreamBW
	lpn := gatherSec + streamSec

	b := Breakdown{SPCOT: spcot, LPN: lpn}
	if includeInit {
		b.Init = initSeconds(params)
	}
	return b
}

// TotalOTsLatency is the one "seconds for n correlations" amortization
// of the software baseline: ceil(n/usable) executions of params across
// `threads` cores, init paid once. Zero correlations cost nothing.
func TotalOTsLatency(params ferret.Params, threads int, n int64) float64 {
	if n <= 0 {
		return 0
	}
	usable := int64(params.Usable())
	execs := (n + usable - 1) / usable
	return initSeconds(params) + float64(execs)*OTELatency(params, threads, false).Total()
}
