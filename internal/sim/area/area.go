// Package area models silicon cost: the PRG-core figures of Table 2
// (Synopsys DC, 45 nm), the CACTI-style SRAM scaling behind Figure
// 14(b), and the whole-accelerator overheads of Table 6. These numbers
// are design-point inputs, so the package encodes the paper's reported
// constants and a fitted SRAM law instead of re-running EDA tools (see
// DESIGN.md).
package area

import "fmt"

// PRGCore is one fully pipelined PRG implementation.
type PRGCore struct {
	Name        string
	OutputBits  int     // per core call
	AreaMM2     float64 // 45 nm
	PowerMW     float64
	BlocksPerOp int // 128-bit blocks produced per call
}

// Table 2 of the paper.
var (
	AES128  = PRGCore{Name: "AES-128", OutputBits: 128, AreaMM2: 0.233, PowerMW: 35.05, BlocksPerOp: 1}
	ChaCha8 = PRGCore{Name: "ChaCha8", OutputBits: 512, AreaMM2: 0.215, PowerMW: 45.34, BlocksPerOp: 4}
)

// PerfPerAreaRatio returns the core's blocks-per-op/area normalized to
// AES-128 (the 4.49x of Table 2).
func PerfPerAreaRatio(c PRGCore) float64 {
	base := float64(AES128.BlocksPerOp) / AES128.AreaMM2
	return (float64(c.BlocksPerOp) / c.AreaMM2) / base
}

// PowerPerBlockRatio returns power per produced block normalized to
// AES-128 (lower is better; Table 2 reports ChaCha8 at 3.092x power for
// 4x blocks, i.e. 0.77x per block).
func PowerPerBlockRatio(c PRGCore) float64 {
	base := AES128.PowerMW / float64(AES128.BlocksPerOp)
	return (c.PowerMW / float64(c.BlocksPerOp)) / base
}

// SRAM area law fitted to the paper's two whole-accelerator anchors
// (Table 6: 1.482 mm^2 with 2x256 KB caches, 2.995 mm^2 with 2x1 MB)
// assuming area-linear SRAM beyond a fixed logic base:
//
//	total(cache) = logicBase + 2*sramMM2PerMB*cacheMB
//
// which yields sram ~1.009 mm^2/MB and a 0.978 mm^2 logic base — in
// family with CACTI 45 nm SRAM densities.
const (
	logicBaseMM2 = 0.978
	sramMM2PerMB = 1.009
	// Power anchors: 1.301 W (256 KB) and 1.430 W (1 MB).
	logicBaseW = 1.258
	sramWPerMB = 0.086
)

// SRAMAreaMM2 estimates the area of one SRAM macro of the given size.
func SRAMAreaMM2(bytes int) float64 {
	return sramMM2PerMB * float64(bytes) / (1 << 20)
}

// Ironman is one Ironman-NMP processing unit configuration.
type Ironman struct {
	CacheBytes  int // memory-side cache per rank module
	RankModules int // per PU (2 in the paper)
	ChaChaCores int
}

// Default256K and Default1M are the two Table 6 design points.
var (
	Default256K = Ironman{CacheBytes: 256 << 10, RankModules: 2, ChaChaCores: 4}
	Default1M   = Ironman{CacheBytes: 1 << 20, RankModules: 2, ChaChaCores: 4}
)

// TotalAreaMM2 estimates the PU area.
func (ir Ironman) TotalAreaMM2() float64 {
	return logicBaseMM2 + float64(ir.RankModules)*SRAMAreaMM2(ir.CacheBytes)
}

// TotalPowerW estimates the PU power.
func (ir Ironman) TotalPowerW() float64 {
	return logicBaseW + float64(ir.RankModules)*sramWPerMB*float64(ir.CacheBytes)/(1<<20)
}

// Reference envelopes from Table 6 for context.
const (
	TypicalDRAMChipAreaMM2 = 100.0
	LRDIMMPowerW           = 10.0
)

// Report renders the Table 6 row for a configuration.
func (ir Ironman) Report() string {
	return fmt.Sprintf("cache=%dKB area=%.3fmm2 power=%.3fW (DRAM chip %.0fmm2, LRDIMM %.0fW)",
		ir.CacheBytes>>10, ir.TotalAreaMM2(), ir.TotalPowerW(),
		TypicalDRAMChipAreaMM2, LRDIMMPowerW)
}
