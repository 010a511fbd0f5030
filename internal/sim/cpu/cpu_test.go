package cpu

import (
	"testing"

	"ironman/internal/ferret"
)

func params(name string) ferret.Params {
	p, err := ferret.ParamsByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// TestFigure1bShape: single-thread execution latency grows with the
// parameter set and sits in the paper's Fig 1(b) band (hundreds of ms
// to a few seconds), with SPCOT+LPN dominating over Init at the large
// end.
func TestFigure1bShape(t *testing.T) {
	var prev float64
	for _, name := range []string{"2^20", "2^21", "2^22", "2^23", "2^24"} {
		b := OTELatency(params(name), 1, true)
		total := b.Total()
		if total <= prev {
			t.Fatalf("%s: latency %.3f not increasing (prev %.3f)", name, total, prev)
		}
		if total < 0.1 || total > 10 {
			t.Fatalf("%s: latency %.3fs outside the plausible Fig 1(b) band", name, total)
		}
		prev = total
	}
	big := OTELatency(params("2^24"), 1, true)
	if big.SPCOT+big.LPN < 3*big.Init {
		t.Fatalf("at 2^24 compute must dominate init: %+v", big)
	}
}

// TestSPCOTAndLPNComparable: on CPU both phases matter (Fig 1(b) shows
// both as major components); neither should be >20x the other.
func TestSPCOTAndLPNComparable(t *testing.T) {
	b := OTELatency(params("2^22"), 1, false)
	ratio := b.SPCOT / b.LPN
	if ratio < 0.05 || ratio > 20 {
		t.Fatalf("SPCOT/LPN = %.2f, phases should be comparable", ratio)
	}
}

func TestThreadScaling(t *testing.T) {
	p := params("2^20")
	one := OTELatency(p, 1, false)
	all := OTELatency(p, Cores, false)
	if all.SPCOT >= one.SPCOT {
		t.Fatal("threads must speed up SPCOT")
	}
	speedup := one.SPCOT / all.SPCOT
	if speedup < 10 || speedup > Cores {
		t.Fatalf("SPCOT thread speedup %.1f implausible", speedup)
	}
	// Requesting more threads than cores clamps.
	over := OTELatency(p, 1000, false)
	if over.SPCOT != all.SPCOT {
		t.Fatal("thread count must clamp to core count")
	}
}

func TestTotalOTsLatencyAccumulates(t *testing.T) {
	p := params("2^20")
	one := TotalOTsLatency(p, Cores, 1<<20)
	many := TotalOTsLatency(p, Cores, 1<<25)
	if many <= one {
		t.Fatal("more OTs must take longer")
	}
	// 32 extra executions but only one init: the ratio must be below a
	// naive 32x.
	if many/one >= 32 {
		t.Fatalf("init amortization missing: ratio %.1f", many/one)
	}
	// Full-thread 2^25 generation lands in a plausible band around the
	// paper's implied ~0.6-6s (Fig 12 CPU baseline).
	if many < 0.2 || many > 20 {
		t.Fatalf("2^25 full-thread latency %.2fs implausible", many)
	}
}

func TestGatherResidency(t *testing.T) {
	// 2^20 set: vector 2.7 MB, index matrix 48 MB — LLC-resident.
	latSmall, concSmall := gatherResidency(params("2^20"))
	if latSmall != llcLatencyNs || concSmall != llcConcCap {
		t.Fatalf("2^20 should gather from LLC, got %f/%f", latSmall, concSmall)
	}
	// 2^24 set: index matrix ~690 MB pollutes the LLC — DRAM-latency
	// gathers (concurrency preserved across banks).
	latBig, concBig := gatherResidency(params("2^24"))
	if latBig != dramLatencyNs || concBig != llcConcCap {
		t.Fatalf("2^24 should gather at DRAM latency, got %f/%f", latBig, concBig)
	}
	if !(latSmall < latBig) {
		t.Fatal("pollution must raise gather latency")
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Init: 1, SPCOT: 2, LPN: 3}
	if b.Total() != 6 {
		t.Fatal("Total broken")
	}
}
