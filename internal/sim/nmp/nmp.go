// Package nmp models the Ironman-NMP processing unit of §5 (Figure 9):
// per-DIMM buffer-chip logic holding a DIMM module (ChaCha8 cores +
// unified XOR-tree unit, running SPCOT) and two Rank modules (index
// address generator + memory-side cache + XOR tree, running LPN close
// to the DRAM devices).
//
// The LPN half replays the *actual* access trace of the protocol's LPN
// code — sorted by the §5.3 algorithm — through the set-associative
// cache model and the DDR4 rank timing model, so cache hit rates and
// row-buffer behaviour are measured, not assumed. The SPCOT half costs
// the PRG op count of the chosen tree construction on the pipelined
// ChaCha core under the hybrid schedule of §4.3 (schedule.go, the
// Figure 8 simulator).
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

// The fixed Ironman-NMP design point (Table 3, §5): every figure
// varies only the rank count and cache size (Config) and, in Fig. 13,
// the tree PRG (SimulateSPCOT's parameter).
const (
	cacheWays      = 8    // memory-side cache associativity
	lineBytes      = 64   // cache line and DRAM burst
	chachaCores    = 1    // per PU: Table 6 prices a single ChaCha8 core
	pipelineStages = 8    // ChaCha8 core depth
	logicFreqMHz   = 1200 // buffer-chip logic clock

	// elemsPerCycle is how many 16-byte vector elements the rank XOR
	// tree consumes per cycle on cache hits (a 64 B SRAM port feeds 4).
	elemsPerCycle = 4
)

// Config is what the paper's sweeps vary over the fixed design point.
type Config struct {
	Ranks      int // active Rank-NMP modules (the Fig 12 x-axis)
	CacheBytes int // memory-side cache per rank module (the Fig 14 x-axis)

	// SampleRows caps the number of matrix rows replayed per rank; the
	// measured cycles are scaled to the full row count. 0 = exact.
	SampleRows int
}

// DefaultConfig is the paper's design point for the given rank count
// and cache size.
func DefaultConfig(ranks, cacheBytes int) Config {
	return Config{Ranks: ranks, CacheBytes: cacheBytes, SampleRows: 200_000}
}

// sortFor returns the §5.3 sorting configuration matched to this
// design point: the compile-time pass scores candidate rows against a
// simulated copy of the *actual* memory-side cache.
func sortFor(cfg Config) lpn.SortOptions {
	return lpn.SortOptions{
		ColumnSwap:      true,
		LookaheadWindow: 32,
		CacheLines:      cfg.CacheBytes / lineBytes,
		LineWords:       lineBytes / block.Size,
	}
}

func (c Config) validate() error {
	if c.Ranks < 1 || c.CacheBytes < lineBytes {
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

// SimulateLPN replays the LPN access pattern of params' protocol code
// (ferret.DefaultCodeSeed), sorted by the §5.3 pass, through one rank
// module and scales to the configured rank count (rows are partitioned
// evenly across ranks, §5.1; each rank holds a broadcast copy of the
// input vector).
func SimulateLPN(cfg Config, params ferret.Params) (LPNStats, error) {
	return simulateLPN(cfg, params, sortFor(cfg))
}

// simulateLPN is SimulateLPN under any sort, for the §5.3 ablations.
func simulateLPN(cfg Config, params ferret.Params, sortOpts lpn.SortOptions) (LPNStats, error) {
	if err := cfg.validate(); err != nil {
		return LPNStats{}, err
	}
	rowsPerRank := (params.N + cfg.Ranks - 1) / cfg.Ranks
	simRows := rowsPerRank
	if cfg.SampleRows > 0 && simRows > cfg.SampleRows {
		simRows = cfg.SampleRows
	}
	code := lpn.New(ferret.DefaultCodeSeed, simRows, params.K, params.D)
	sorted := code.Sort(sortOpts)

	c := cache.New(cfg.CacheBytes, lineBytes, cacheWays)
	rank := dram.NewRank(dram.DDR4_2400, dram.DefaultGeometry)

	// The index arrays (Colidx + Rowidx) stream sequentially from a
	// dedicated region; they bypass the cache (§5.3) and cost one line
	// read per line of index data.
	idxBytesPerRow := int64(params.D*4 + 4)
	var idxAddr uint64 = 1 << 40
	var idxPending int64

	// Hit-path cycles: elemsPerCycle elements per cycle through the
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
		idxAddr += lineBytes
		idxPending -= lineBytes
	}

	dramCycles := rank.Cycles()
	hitCycles := hitElems / elemsPerCycle
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
		Seconds:       float64(scaled) / (logicFreqMHz * 1e6),
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
	batch := pipelineStages * 2
	if batch > trees {
		batch = trees
	}
	util := 1.0
	if batch >= 1 {
		st := SimulateSchedule(PipelineConfig{
			Arities: ggm.LevelArities(leaves, p.Arity()),
			Trees:   batch,
		}, Hybrid)
		util = st.Utilization
	}

	// The tree engine lives in the DIMM module's unified unit; tree
	// outputs must reach the rank modules' LPN inputs, so SPCOT runs on
	// the PU's ChaCha cores rather than fanning out across DIMMs
	// (Figure 9: one GGM-tree expansion unit per Ironman-NMP PU).
	cycles := int64(float64(totalOps)/(chachaCores*util)) + pipelineStages
	return SPCOTStats{
		Ops:         totalOps,
		Utilization: util,
		Cycles:      cycles,
		Seconds:     float64(cycles) / (logicFreqMHz * 1e6),
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
// with the given parameter set on the protocol's trees (ferret.TreePRG):
// ceil(totalOTs/usable) executions, each costing max(SPCOT, LPN), since
// the decoupled PU runs the two phases concurrently (§5.1). Result
// carries both phases, so the serial cost is their sum.
func SimulateOTE(cfg Config, params ferret.Params, totalOTs int) (Result, error) {
	execs := (totalOTs + params.Usable() - 1) / params.Usable()
	if execs < 1 {
		execs = 1
	}
	sp, err := SimulateSPCOT(cfg, ferret.TreePRG, params.L, params.T)
	if err != nil {
		return Result{}, err
	}
	lp, err := SimulateLPN(cfg, params)
	if err != nil {
		return Result{}, err
	}
	exec := max(sp.Seconds, lp.Seconds)
	return Result{
		Executions:   execs,
		SPCOT:        sp,
		LPN:          lp,
		ExecSeconds:  exec,
		TotalSeconds: exec * float64(execs),
	}, nil
}
