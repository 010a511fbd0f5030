// Package gpu models the NVIDIA A6000 implementation the paper uses as
// a second baseline (§6.1): the GPU delivers a 5.88x throughput gain
// over the full-thread CPU, with the latency split 44.1% SPCOT / 50.2%
// LPN (the big L1/L2 caches feed LPN better than the host's LLC). The
// model anchors on those reported figures rather than re-deriving a
// CUDA performance model — see the substitution table in DESIGN.md.
package gpu

// Model captures the paper's A6000 datapoints.
type Model struct {
	// SpeedupOverCPU is the throughput gain over the 24-thread CPU.
	SpeedupOverCPU float64
	// SPCOTShare and LPNShare split the GPU latency (§6.1); the
	// remainder is kernel launch + transfer overhead.
	SPCOTShare float64
	LPNShare   float64
	// PowerWatts is the board power used in the §6.1 energy comparison
	// (Ironman claims an 84.5x power reduction vs the GPU).
	PowerWatts float64
}

// A6000 is the paper's configuration.
var A6000 = Model{
	SpeedupOverCPU: 5.88,
	SPCOTShare:     0.441,
	LPNShare:       0.502,
	PowerWatts:     120.9, // implied by 84.5x over Ironman's 1.43 W
}
