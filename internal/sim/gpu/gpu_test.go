package gpu

import (
	"math"
	"testing"
)

// TestGPUFasterThanCPU pins the §6.1 anchor every GPU latency divides
// the full-thread CPU latency by.
func TestGPUFasterThanCPU(t *testing.T) {
	if math.Abs(A6000.SpeedupOverCPU-5.88) > 1e-9 {
		t.Fatalf("GPU speedup %.2f, want 5.88 (§6.1)", A6000.SpeedupOverCPU)
	}
}

func TestBreakdownShares(t *testing.T) {
	other := 1 - A6000.SPCOTShare - A6000.LPNShare
	if math.Abs(A6000.SPCOTShare-0.441) > 1e-9 || math.Abs(A6000.LPNShare-0.502) > 1e-9 {
		t.Fatalf("breakdown %f/%f wrong", A6000.SPCOTShare, A6000.LPNShare)
	}
	if other < 0 || other > 0.1 {
		t.Fatalf("other share %f implausible", other)
	}
}

func TestPowerGapVsIronman(t *testing.T) {
	// §6.1 reports an 84.5x power reduction for Ironman (1.43 W).
	if r := A6000.PowerWatts / 1.43; math.Abs(r-84.5) > 1 {
		t.Fatalf("power ratio %.1f, want ~84.5", r)
	}
}
