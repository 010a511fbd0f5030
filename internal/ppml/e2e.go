package ppml

import (
	"fmt"

	"ironman/internal/ferret"
	"ironman/internal/sim/cpu"
	"ironman/internal/sim/nmp"
	"ironman/internal/simnet"
	"ironman/internal/spcot"
)

// OTBackend prices the OT-extension preprocessing phase.
type OTBackend interface {
	Name() string
	// Seconds is the latency of generating n COT correlations.
	Seconds(n int64) float64
}

// oteParams is the parameter set all backends amortize over; the 2^22
// row balances per-execution overhead against LPN footprint.
var oteParams = mustParams("2^22")

func mustParams(name string) ferret.Params {
	p, err := ferret.ParamsByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// PreprocBytesFor is the (sublinear) OTE communication per produced
// correlation under a parameter set: SPCOT's exact wire over binary
// AES GGM trees (cpu.BaselinePRG), the construction the CPU model
// prices. Per execution, one exchange of T·log2(ℓ) chosen OTs plus each
// tree's node-recovery block, amortized over the Usable() yield.
func PreprocBytesFor(p ferret.Params) float64 {
	return float64(spcot.ExchangeBytes(cpu.BaselinePRG, p.L, p.T)) / float64(p.Usable())
}

// PreprocBytesPerOT is PreprocBytesFor at the parameter set all
// backends amortize over (oteParams), so the cost models track the
// active parameter set instead of a hardcoded constant.
var PreprocBytesPerOT = PreprocBytesFor(oteParams)

// otThreads is how many of the host's cores the frameworks dedicate to
// OT extension alongside their other work (their multithreaded OT
// workers).
const otThreads = 4

// CPUBackend is the software baseline: sim/cpu's host on otThreads.
type CPUBackend struct{}

func (CPUBackend) Name() string { return fmt.Sprintf("CPU(%d threads)", otThreads) }

func (CPUBackend) Seconds(n int64) float64 {
	return cpu.TotalOTsLatency(oteParams, otThreads, n)
}

// GPUBackend prices OT extension on the paper's A6000: the full-thread
// host divided by cpu.A6000Speedup.
type GPUBackend struct{}

func (GPUBackend) Name() string { return "GPU(A6000)" }

func (GPUBackend) Seconds(n int64) float64 {
	return cpu.TotalOTsLatency(oteParams, cpu.Cores, n) / cpu.A6000Speedup
}

// IronmanBackend prices OT extension on the NMP simulator. Results are
// memoized per configuration (the trace replay is the expensive part).
type IronmanBackend struct {
	Cfg nmp.Config

	perExec float64 // cached seconds per execution
}

func (b *IronmanBackend) Name() string {
	return fmt.Sprintf("Ironman(%dranks,%dKB)", b.Cfg.Ranks, b.Cfg.CacheBytes>>10)
}

func (b *IronmanBackend) Seconds(n int64) float64 {
	if n <= 0 {
		return 0
	}
	if b.perExec == 0 {
		res, err := nmp.SimulateOTE(b.Cfg, oteParams, oteParams.Usable())
		if err != nil {
			panic(err)
		}
		b.perExec = res.ExecSeconds
	}
	execs := (n + int64(oteParams.Usable()) - 1) / int64(oteParams.Usable())
	return float64(execs) * b.perExec
}

// DefaultIronman is the 16-rank, 1 MB design point.
func DefaultIronman() *IronmanBackend {
	return &IronmanBackend{Cfg: nmp.DefaultConfig(16, 1<<20)}
}

// Latency is the end-to-end decomposition of one private inference,
// mirroring the Figure 1(a) categories.
type Latency struct {
	Linear     float64 // HE/linear-layer compute
	OTE        float64 // OT-extension preprocessing compute
	OnlineComm float64 // all wire time (linear + nonlinear + preproc)
	Other      float64
}

// Total sums the components.
func (l Latency) Total() float64 { return l.Linear + l.OTE + l.OnlineComm + l.Other }

// OTEFraction is the Figure 1(a) headline number. A zero-cost latency
// (the zero Latency) has no OTE share: the fraction is 0, not NaN.
func (l Latency) OTEFraction() float64 {
	t := l.Total()
	if t == 0 {
		return 0
	}
	return l.OTE / t
}

// EndToEnd composes one inference latency.
func EndToEnd(f Framework, m Model, net simnet.Network, ot OTBackend) Latency {
	if !f.Supports(m) {
		panic(fmt.Sprintf("ppml: %s does not evaluate %s", f.Name, m.Name))
	}
	linear := float64(m.MACs) * f.LinearSecPerMAC
	ots := f.OTCount(m)
	ote := ot.Seconds(ots)
	bytes := f.OnlineBytes(m) + f.LinearBytes(m) + int64(float64(ots)*PreprocBytesPerOT)
	comm := net.Latency(bytes, f.Rounds(m))
	other := f.OtherFrac * (linear + comm)
	return Latency{Linear: linear, OTE: ote, OnlineComm: comm, Other: other}
}

// Speedup compares baseline and accelerated OT backends end to end.
func Speedup(f Framework, m Model, net simnet.Network, base, accel OTBackend) (baseLat, accelLat Latency, speedup float64) {
	baseLat = EndToEnd(f, m, net, base)
	accelLat = EndToEnd(f, m, net, accel)
	return baseLat, accelLat, baseLat.Total() / accelLat.Total()
}

// OperatorBench is the Figure 15 microbenchmark: a batch of one
// nonlinear operator evaluated under a framework. An empty batch
// (elems ≤ 0) runs no protocol, so it costs nothing, round trips
// included.
func OperatorBench(f Framework, op Op, elems int64, net simnet.Network, ot OTBackend) Latency {
	c, ok := f.Costs[op]
	if !ok {
		panic(fmt.Sprintf("ppml: %s has no %v protocol", f.Name, op))
	}
	if elems <= 0 {
		return Latency{}
	}
	ots := int64(float64(elems) * c.OTs)
	ote := ot.Seconds(ots)
	bytes := int64(float64(elems)*c.OnlineBytes + float64(ots)*PreprocBytesPerOT)
	comm := net.Latency(bytes, f.RoundsPerLayer)
	other := f.OtherFrac * comm
	return Latency{OTE: ote, OnlineComm: comm, Other: other}
}

// MatMul models the Figure 16 study: communication of an OT-based
// secure matrix multiplication (PrivQuant-style) of dims
// (input m, hidden k, output n), with and without the unified
// sender/receiver architecture. Role switching lets every tile run the
// OT in its cheaper direction, halving traffic (§5.2); compute costs
// ~1.5x the unified-case wire time, so halving communication yields
// the paper's ~1.4x latency gain.
type MatMul struct {
	M, K, N int
}

// CommBytes returns modeled traffic.
func (mm MatMul) CommBytes(unified bool) int64 {
	base := int64(mm.M*mm.K+mm.K*mm.N+mm.M*mm.N) * 32
	if unified {
		return base
	}
	return 2 * base
}

// Latency returns modeled wall time on the given network.
func (mm MatMul) Latency(net simnet.Network, unified bool) float64 {
	comm := net.Latency(mm.CommBytes(unified), 4)
	compute := 1.5 * net.Latency(mm.CommBytes(true), 0)
	return comm + compute
}
