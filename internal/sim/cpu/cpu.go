// Package cpu is the analytic model of the software baseline: Ferret
// running on the Table 3 host (24-core Xeon Gold 5220R @ 2.2 GHz with
// AES-NI and DDR4 memory). It replaces the authors' measurements on
// physical hardware (see DESIGN.md, substitution table).
//
// The model prices the two protocol phases separately, mirroring the
// Figure 1(b) breakdown:
//
//   - SPCOT is compute-bound: over Ferret's binary AES trees, per AES
//     call we charge an *effective* cycle cost that folds in the tree
//     bookkeeping, level-sum XORs and OT message handling that a
//     software GGM implementation pays around the raw AES-NI
//     instruction.
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

// Model holds the host parameters.
type Model struct {
	Cores   int
	FreqGHz float64

	// Effective cycles per AES call in the GGM expansion, including
	// surrounding software overhead.
	AESCycles float64
	// Thread-scaling efficiency of the SPCOT phase.
	ThreadEff float64

	// Cache capacities (bytes) for placing the LPN input vector.
	L2Bytes  int64
	LLCBytes int64
	// Random-access latencies (ns) per vector element by residency.
	L2LatencyNs   float64
	LLCLatencyNs  float64
	DRAMLatencyNs float64
	// MLP is the per-thread memory-level parallelism of the gather
	// loop; total outstanding accesses are capped per residency level
	// (an LLC sustains more concurrent lookups than the DRAM
	// controller sustains misses).
	MLP         float64
	LLCConcCap  float64
	DRAMConcCap float64
	// PollutionFactor: once the streamed index matrix exceeds this
	// multiple of the LLC, it evicts the input vector and gathers pay
	// DRAM latency — the >900 MB working-set effect of §3.2.
	PollutionFactor float64
	// Sustainable DRAM streaming bandwidth (bytes/s) for the index
	// matrix and output vectors.
	StreamBW float64

	// One-time initialization: base OTs + IKNP extension (seconds) plus
	// a per-correlation IKNP cost.
	InitBaseSeconds float64
	InitPerCOTNs    float64
}

// Xeon5220R is the Table 3 host, calibrated as described above.
var Xeon5220R = Model{
	Cores:   24,
	FreqGHz: 2.2,

	AESCycles: 58, // effective, incl. tree bookkeeping + OT handling
	ThreadEff: 0.80,

	L2Bytes:         2 << 20, // per-core private slice
	LLCBytes:        71 << 20,
	L2LatencyNs:     6,
	LLCLatencyNs:    22,
	DRAMLatencyNs:   85,
	MLP:             4,
	LLCConcCap:      32,
	DRAMConcCap:     10,
	PollutionFactor: 1.5,
	StreamBW:        60e9, // of the 76.8 GB/s theoretical peak

	InitBaseSeconds: 0.120, // 128 P-256 base OTs + handshake
	InitPerCOTNs:    180,   // IKNP column processing per base COT
}

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
func (m Model) gatherResidency(params ferret.Params) (latencyNs, concCap float64) {
	vecBytes := int64(params.K) * 16
	codeBytes := int64(params.N) * int64(params.D) * 4
	switch {
	case float64(codeBytes) > m.PollutionFactor*float64(m.LLCBytes):
		// Pollution raises the *latency* of each gather to DRAM but the
		// misses still enjoy the full controller concurrency (they are
		// independent loads across many banks).
		return m.DRAMLatencyNs, m.LLCConcCap
	case vecBytes <= m.L2Bytes:
		return m.L2LatencyNs, m.LLCConcCap
	case vecBytes <= m.LLCBytes:
		return m.LLCLatencyNs, m.LLCConcCap
	default:
		return m.DRAMLatencyNs, m.DRAMConcCap
	}
}

// baselinePRG is the software baseline's GGM tree: Ferret's binary
// trees on AES-NI, the construction AESCycles is calibrated against.
var baselinePRG = prg.New(prg.AES, 2)

// OTELatency estimates one protocol execution (Extend) of params on the
// baseline's binary AES trees across `threads` cores. includeInit adds
// the one-time initialization (only the first execution pays it).
func (m Model) OTELatency(params ferret.Params, threads int, includeInit bool) Breakdown {
	if threads < 1 {
		threads = 1
	}
	if threads > m.Cores {
		threads = m.Cores
	}

	// SPCOT: t trees, both local expansion and the per-level OT work.
	ops := float64(params.T * ggm.OpsForTree(baselinePRG, params.L))
	spcot := ops * m.AESCycles / (m.FreqGHz * 1e9)
	// Amdahl-style thread scaling: the first thread is full speed,
	// extra threads contribute at ThreadEff.
	spcot /= 1 + float64(threads-1)*m.ThreadEff

	// LPN: n·d gathers + streaming the index matrix and output vector.
	// Threads overlap gathers up to the concurrency cap of the level
	// serving the vector.
	gathers := float64(params.N) * float64(params.D)
	lat, concCap := m.gatherResidency(params)
	conc := float64(threads) * m.MLP
	if conc > concCap {
		conc = concCap
	}
	gatherSec := gathers * lat * 1e-9 / conc
	streamBytes := float64(params.N) * (float64(params.D)*4 + 2*16)
	streamSec := streamBytes / m.StreamBW
	lpn := gatherSec + streamSec

	b := Breakdown{SPCOT: spcot, LPN: lpn}
	if includeInit {
		b.Init = m.InitBaseSeconds + float64(params.Reserve())*m.InitPerCOTNs*1e-9
	}
	return b
}

// TotalOTsLatency prices the generation of totalOTs correlations with
// full threads (the Figure 12 baseline): ceil(totalOTs/usable)
// executions, init paid once.
func (m Model) TotalOTsLatency(params ferret.Params, totalOTs int) float64 {
	execs := (totalOTs + params.Usable() - 1) / params.Usable()
	if execs < 1 {
		execs = 1
	}
	first := m.OTELatency(params, m.Cores, true)
	rest := m.OTELatency(params, m.Cores, false)
	return first.Total() + float64(execs-1)*rest.Total()
}
