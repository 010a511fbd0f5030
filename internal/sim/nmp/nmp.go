// Package nmp models the Ironman-NMP processing unit of §5 (Figure 9):
// per-DIMM buffer-chip logic holding a DIMM module (ChaCha8 cores +
// unified XOR-tree unit, running SPCOT) and two Rank modules (index
// address generator + memory-side cache + XOR tree, running LPN close
// to the DRAM devices).
//
// The LPN half replays the *actual* access trace of the protocol's LPN
// code — optionally sorted by the §5.3 algorithm — through the
// set-associative cache model and the DDR4 rank timing model, so cache
// hit rates and row-buffer behaviour are measured, not assumed. The
// SPCOT half costs the PRG op count of the chosen tree construction on
// the pipelined ChaCha cores under the hybrid schedule of §4.3.
package nmp

import (
	"fmt"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/lpn"
	"ironman/internal/prg"
	"ironman/internal/sim/cache"
	"ironman/internal/sim/dram"
)

// Config describes one Ironman deployment.
type Config struct {
	Ranks        int // active Rank-NMP modules (the Fig 12 x-axis)
	RanksPerDIMM int // 2 in the Table 3 system

	CacheBytes int // memory-side cache per rank module
	CacheWays  int
	LineBytes  int

	ChaChaCores    int // per DIMM module
	PipelineStages int // ChaCha8 core depth
	LogicFreqMHz   int // buffer-chip logic clock

	// ElemsPerCycle is how many 16-byte vector elements the rank XOR
	// tree consumes per cycle on cache hits (a 64 B SRAM port feeds 4).
	ElemsPerCycle int

	// Overlap enables the SPCOT/LPN decoupling of §5.1 (the two phases
	// proceed concurrently; total = max instead of sum).
	Overlap bool

	// SampleRows caps the number of matrix rows replayed per rank; the
	// measured cycles are scaled to the full row count. 0 = exact.
	SampleRows int
}

// DefaultConfig is the paper's preferred design point for the given
// rank count and cache size.
func DefaultConfig(ranks, cacheBytes int) Config {
	return Config{
		Ranks:          ranks,
		RanksPerDIMM:   2,
		CacheBytes:     cacheBytes,
		CacheWays:      8,
		LineBytes:      64,
		ChaChaCores:    1, // Table 6 prices a single ChaCha8 core per PU
		PipelineStages: 8,
		LogicFreqMHz:   1200,
		ElemsPerCycle:  4,
		Overlap:        true,
		SampleRows:     200_000,
	}
}

// SortFor returns the §5.3 sorting configuration matched to this
// design point: the compile-time pass scores candidate rows against a
// simulated copy of the *actual* memory-side cache.
func SortFor(cfg Config) lpn.SortOptions {
	return lpn.SortOptions{
		ColumnSwap:      true,
		LookaheadWindow: 32,
		CacheLines:      cfg.CacheBytes / cfg.LineBytes,
		LineWords:       cfg.LineBytes / block.Size,
	}
}

func (c Config) validate() error {
	if c.Ranks < 1 || c.RanksPerDIMM < 1 || c.CacheBytes < c.LineBytes ||
		c.ChaChaCores < 1 || c.LogicFreqMHz < 1 || c.ElemsPerCycle < 1 {
		return fmt.Errorf("nmp: bad config %+v", c)
	}
	return nil
}

// LPNStats is the outcome of replaying one execution's LPN trace.
type LPNStats struct {
	RowsPerRank   int
	Accesses      int64 // vector-element accesses replayed (per rank)
	CacheHitRate  float64
	RowHitRate    float64 // DRAM row-buffer hit rate of the miss stream
	CyclesPerRank int64   // scaled to the full per-rank row count
	Seconds       float64
}

// SimulateLPN replays the LPN access pattern of params through one rank
// module and scales to the configured rank count (rows are partitioned
// evenly across ranks, §5.1; each rank holds a broadcast copy of the
// input vector).
func SimulateLPN(cfg Config, params ferret.Params, sortOpts lpn.SortOptions, codeSeed block.Block) (LPNStats, error) {
	if err := cfg.validate(); err != nil {
		return LPNStats{}, err
	}
	rowsPerRank := (params.N + cfg.Ranks - 1) / cfg.Ranks
	simRows := rowsPerRank
	if cfg.SampleRows > 0 && simRows > cfg.SampleRows {
		simRows = cfg.SampleRows
	}
	code := lpn.New(codeSeed, simRows, params.K, params.D)
	sorted := code.Sort(sortOpts)

	c := cache.New(cfg.CacheBytes, cfg.LineBytes, cfg.CacheWays)
	rank := dram.NewRank(dram.DDR4_2400, dram.DefaultGeometry)

	// The index arrays (Colidx + Rowidx) stream sequentially from a
	// dedicated region; they bypass the cache (§5.3) and cost one line
	// read per LineBytes of index data.
	idxBytesPerRow := int64(params.D*4 + 4)
	var idxAddr uint64 = 1 << 40
	var idxPending int64

	// Hit-path cycles: ElemsPerCycle elements per cycle through the
	// XOR tree.
	var hitElems int64
	var misses int64

	sorted.AccessTrace(func(col uint32) {
		addr := uint64(col) * block.Size
		if c.Access(addr) {
			hitElems++
		} else {
			misses++
			rank.Read(addr)
		}
	})
	// Stream the index arrays.
	idxPending = int64(simRows) * idxBytesPerRow
	for idxPending > 0 {
		rank.Read(idxAddr)
		idxAddr += uint64(cfg.LineBytes)
		idxPending -= int64(cfg.LineBytes)
	}

	dramCycles := rank.Cycles()
	hitCycles := hitElems / int64(cfg.ElemsPerCycle)
	// The rank module pipelines hit processing against DRAM service;
	// the slower of the two streams bounds throughput.
	cycles := dramCycles
	if hitCycles > cycles {
		cycles = hitCycles
	}

	scale := float64(rowsPerRank) / float64(simRows)
	scaled := int64(float64(cycles) * scale)
	return LPNStats{
		RowsPerRank:   rowsPerRank,
		Accesses:      int64(simRows) * int64(params.D),
		CacheHitRate:  c.HitRate(),
		RowHitRate:    rank.RowHitRate(),
		CyclesPerRank: scaled,
		Seconds:       float64(scaled) / (float64(cfg.LogicFreqMHz) * 1e6),
	}, nil
}

// SPCOTStats is the DIMM-module cost of one execution's tree batch.
type SPCOTStats struct {
	Ops         int // primitive PRG core calls across all trees
	Utilization float64
	Cycles      int64
	Seconds     float64
}

// SimulateSPCOT costs t trees of ℓ leaves expanded with p on the
// ChaCha/AES cores of all DIMM modules under the hybrid schedule.
func SimulateSPCOT(cfg Config, p prg.PRG, leaves, trees int) (SPCOTStats, error) {
	if err := cfg.validate(); err != nil {
		return SPCOTStats{}, err
	}
	opsPerTree := ggm.OpsForTree(p, leaves)
	totalOps := opsPerTree * trees

	// Pipeline utilization from the schedule simulator on a small
	// representative batch (enough trees to fill the pipeline).
	batch := cfg.PipelineStages * 2
	if batch > trees {
		batch = trees
	}
	util := 1.0
	if batch >= 1 {
		st := ggm.SimulateSchedule(ggm.PipelineConfig{
			Stages:  cfg.PipelineStages,
			Arities: ggm.LevelArities(leaves, p.Arity()),
			Trees:   batch,
		}, ggm.Hybrid)
		util = st.Utilization
	}

	// The tree engine lives in the DIMM module's unified unit; tree
	// outputs must reach the rank modules' LPN inputs, so SPCOT runs on
	// the PU's ChaCha cores rather than fanning out across DIMMs
	// (Figure 9: one GGM-tree expansion unit per Ironman-NMP PU).
	units := cfg.ChaChaCores
	cycles := int64(float64(totalOps)/(float64(units)*util)) + int64(cfg.PipelineStages)
	return SPCOTStats{
		Ops:         totalOps,
		Utilization: util,
		Cycles:      cycles,
		Seconds:     float64(cycles) / (float64(cfg.LogicFreqMHz) * 1e6),
	}, nil
}

// Result is the end-to-end OTE latency estimate for a workload.
type Result struct {
	Executions int
	SPCOT      SPCOTStats
	LPN        LPNStats
	// Per-execution and total seconds.
	ExecSeconds  float64
	TotalSeconds float64
}

// SimulateOTE estimates the latency of producing totalOTs correlations
// with the given parameter set: ceil(totalOTs/usable) executions, each
// costing max(SPCOT, LPN) when overlapped (§5.1) or their sum when not.
func SimulateOTE(cfg Config, params ferret.Params, p prg.PRG, sortOpts lpn.SortOptions, totalOTs int) (Result, error) {
	execs := (totalOTs + params.Usable() - 1) / params.Usable()
	if execs < 1 {
		execs = 1
	}
	sp, err := SimulateSPCOT(cfg, p, params.L, params.T)
	if err != nil {
		return Result{}, err
	}
	lp, err := SimulateLPN(cfg, params, sortOpts, ferret.DefaultCodeSeed)
	if err != nil {
		return Result{}, err
	}
	var exec float64
	if cfg.Overlap {
		exec = sp.Seconds
		if lp.Seconds > exec {
			exec = lp.Seconds
		}
	} else {
		exec = sp.Seconds + lp.Seconds
	}
	return Result{
		Executions:   execs,
		SPCOT:        sp,
		LPN:          lp,
		ExecSeconds:  exec,
		TotalSeconds: exec * float64(execs),
	}, nil
}
