// Package roofline reproduces the Figure 1(c) analysis: plotting SPCOT
// and LPN against the host roofline in "AES operations per second"
// versus "operational intensity (AES per byte of DRAM traffic)" shows
// SPCOT pinned at the compute peak (compute-bound) and LPN far down the
// bandwidth slope (memory-bound) — the observation that motivates the
// split accelerator design. The paper's host, Xeon5220R, is derived
// from sim/cpu's constants and SPCOT counts cpu.BaselinePRG's calls, so
// the roofline and the CPU model state one host.
package roofline

import (
	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/sim/cpu"
)

// Machine is the roofline envelope of the host.
type Machine struct {
	// PeakAESPerSec is the all-core AES-NI throughput.
	PeakAESPerSec float64
	// MemBandwidth is sustainable DRAM bandwidth in bytes/s.
	MemBandwidth float64
}

// Xeon5220R is sim/cpu's Table 3 host. AES-128 is 10 AESENC rounds;
// with the pipelined AES-NI unit retiring one AESENC per cycle per
// core, a core sustains one full AES per 10 cycles: 24 cores x 2.2 GHz
// / 10 = 5.28 G AES/s, against cpu.StreamBW (~60 GB/s) of sustainable
// DRAM bandwidth.
var Xeon5220R = Machine{
	PeakAESPerSec: cpu.Cores * cpu.FreqGHz * 1e9 / 10,
	MemBandwidth:  cpu.StreamBW,
}

// Point is one kernel on the roofline.
type Point struct {
	Name string
	// Intensity is AES ops per byte of memory traffic.
	Intensity float64
	// Attainable is min(peak, intensity*bandwidth) in AES/s.
	Attainable float64
	// ComputeBound reports which side of the ridge the kernel sits on.
	ComputeBound bool
}

// Attainable computes the roofline value for an intensity.
func (m Machine) Attainable(intensity float64) float64 {
	bw := intensity * m.MemBandwidth
	if bw < m.PeakAESPerSec {
		return bw
	}
	return m.PeakAESPerSec
}

// RidgeIntensity is the intensity at which the roof flattens.
func (m Machine) RidgeIntensity() float64 {
	return m.PeakAESPerSec / m.MemBandwidth
}

// SPCOTPoint places one SPCOT execution on the roofline: over the
// baseline's binary AES trees (cpu.BaselinePRG) the kernel performs
// t·OpsForTree AES calls while writing the t·ℓ leaf blocks once (the
// tree levels live in cache).
func SPCOTPoint(m Machine, params ferret.Params) Point {
	ops := float64(params.T * ggm.OpsForTree(cpu.BaselinePRG, params.L))
	bytes := float64(params.T*params.L) * 16 // leaf writeback
	return newPoint(m, "SPCOT/"+params.Name, ops/bytes)
}

// LPNPoint places one LPN encoding on the roofline. The AES-equivalent
// op count follows the paper's convention (index generation counted as
// AES work): one op per d-gather output; traffic is the gathered lines
// (64 B each, mostly missing at protocol-scale k) plus the streamed
// index matrix.
func LPNPoint(m Machine, params ferret.Params) Point {
	ops := float64(params.N)
	bytes := float64(params.N) * (float64(params.D)*64*0.75 + float64(params.D)*4 + 32)
	return newPoint(m, "LPN/"+params.Name, ops/bytes)
}

func newPoint(m Machine, name string, intensity float64) Point {
	return Point{
		Name:         name,
		Intensity:    intensity,
		Attainable:   m.Attainable(intensity),
		ComputeBound: intensity >= m.RidgeIntensity(),
	}
}

// Figure1c returns the roofline points for every Table 4 set.
func Figure1c(m Machine) []Point {
	var pts []Point
	for _, params := range ferret.Table4 {
		pts = append(pts, SPCOTPoint(m, params))
	}
	for _, params := range ferret.Table4 {
		pts = append(pts, LPNPoint(m, params))
	}
	return pts
}
