package area

import (
	"math"
	"strings"
	"testing"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestTable2Ratios reproduces the normalized columns of Table 2.
func TestTable2Ratios(t *testing.T) {
	if !close(PerfPerAreaRatio(AES128), 1.0, 1e-9) {
		t.Fatal("AES perf/area must normalize to 1")
	}
	// Pure blocks-per-op/area gives 4.335; the paper's 4.491 likely
	// folds in a small frequency difference between the two syntheses.
	if r := PerfPerAreaRatio(ChaCha8); !close(r, 4.491, 0.2) {
		t.Fatalf("ChaCha8 perf/area ratio %.3f, paper reports ~4.491", r)
	}
	if r := ChaCha8.PowerMW / AES128.PowerMW; !close(r, 1.293, 0.01) {
		t.Fatalf("ChaCha8 raw power ratio %.3f", r)
	}
	// Per produced block ChaCha8 is cheaper than AES.
	if PowerPerBlockRatio(ChaCha8) >= 1 {
		t.Fatal("ChaCha8 must be more power-efficient per block")
	}
}

// TestTable6Anchors: the fitted SRAM law must land on the paper's two
// whole-accelerator datapoints.
func TestTable6Anchors(t *testing.T) {
	if a := Default256K.TotalAreaMM2(); !close(a, 1.482, 0.01) {
		t.Fatalf("256KB area %.3f, want 1.482", a)
	}
	if a := Default1M.TotalAreaMM2(); !close(a, 2.995, 0.01) {
		t.Fatalf("1MB area %.3f, want 2.995", a)
	}
	if p := Default256K.TotalPowerW(); !close(p, 1.301, 0.01) {
		t.Fatalf("256KB power %.3f, want 1.301", p)
	}
	if p := Default1M.TotalPowerW(); !close(p, 1.430, 0.01) {
		t.Fatalf("1MB power %.3f, want 1.430", p)
	}
}

// TestFigure14bShape: doubling 1MB -> 2MB costs ~2.2x SRAM area (§6.3).
func TestFigure14bShape(t *testing.T) {
	oneMB := SRAMAreaMM2(1 << 20)
	twoMB := SRAMAreaMM2(2 << 20)
	r := twoMB / oneMB
	if r < 1.9 || r > 2.3 {
		t.Fatalf("2MB/1MB area ratio %.2f, want ~2.2 (Fig 14b)", r)
	}
	// Monotone over the sweep.
	prev := 0.0
	for _, kb := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		a := SRAMAreaMM2(kb << 10)
		if a <= prev {
			t.Fatalf("SRAM area must grow with capacity")
		}
		prev = a
	}
}

// TestOverheadTiny: the Table 6 punchline — the accelerator is a small
// fraction of a DRAM chip's area and an LRDIMM's power.
func TestOverheadTiny(t *testing.T) {
	if Default1M.TotalAreaMM2() > 0.05*TypicalDRAMChipAreaMM2 {
		t.Fatal("accelerator area should be <5% of a DRAM chip")
	}
	if Default1M.TotalPowerW() > 0.2*LRDIMMPowerW {
		t.Fatal("accelerator power should be <20% of an LRDIMM")
	}
}

func TestReport(t *testing.T) {
	s := Default256K.Report()
	if !strings.Contains(s, "256KB") || !strings.Contains(s, "1.482") {
		t.Fatalf("report malformed: %s", s)
	}
}
