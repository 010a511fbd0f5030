package ppml

import (
	"math"
	"testing"

	"ironman/internal/ferret"
	"ironman/internal/gmw"
	"ironman/internal/sim/gpu"
	"ironman/internal/sim/nmp"
	"ironman/internal/simnet"
)

// testIronman uses a sampled NMP sim to keep tests fast.
func testIronman() *IronmanBackend {
	cfg := nmp.DefaultConfig(16, 1<<20)
	cfg.SampleRows = 20000
	return &IronmanBackend{Cfg: cfg}
}

func TestModelZooShapes(t *testing.T) {
	for _, m := range CNNs {
		if m.Transformer {
			t.Errorf("%s mislabeled as transformer", m.Name)
		}
		if m.Elems[ReLU] == 0 || m.Elems[GELU] != 0 {
			t.Errorf("%s: CNN must have ReLUs only", m.Name)
		}
	}
	for _, m := range Transformers {
		if !m.Transformer {
			t.Errorf("%s mislabeled", m.Name)
		}
		if m.Elems[GELU] == 0 || m.Elems[Softmax] == 0 || m.Elems[LayerNorm] == 0 {
			t.Errorf("%s: transformer missing op counts", m.Name)
		}
	}
	// BERT-Base reference shapes: 12x128x3072 GELU.
	if BERTBase.Elems[GELU] != 12*128*3072 {
		t.Fatalf("BERT-Base GELU = %d", BERTBase.Elems[GELU])
	}
	if BERTLarge.TotalNonlinear() <= BERTBase.TotalNonlinear() {
		t.Fatal("BERT-Large must exceed BERT-Base")
	}
}

func TestModelByName(t *testing.T) {
	if m, ok := ModelByName("ResNet50"); !ok || m.Elems[ReLU] != 9_400_000 {
		t.Fatal("ResNet50 lookup broken")
	}
	if _, ok := ModelByName("AlexNet"); ok {
		t.Fatal("unknown model should fail")
	}
}

func TestFrameworkCosts(t *testing.T) {
	// Cheetah is strictly cheaper than CrypTFlow2 per ReLU.
	if Cheetah.Costs[ReLU].OTs >= CrypTFlow2.Costs[ReLU].OTs {
		t.Fatal("Cheetah should consume fewer OTs per ReLU")
	}
	if CrypTFlow2.OTCount(ResNet50) <= CrypTFlow2.OTCount(ResNet18) {
		t.Fatal("more ReLUs must need more OTs")
	}
	if !Bolt.Supports(BERTBase) || Bolt.Supports(ResNet50) {
		t.Fatal("Bolt targets transformers")
	}
	if !CrypTFlow2.Supports(ResNet50) || CrypTFlow2.Supports(BERTBase) {
		t.Fatal("CrypTFlow2 targets CNNs")
	}
	if !SiRNN.Supports(BERTBase) || !SiRNN.Supports(ResNet50) {
		t.Fatal("SiRNN evaluates both families")
	}
}

// TestFig1aOTEFraction: the paper's motivating observation — OT
// extension accounts for roughly half to two-thirds of baseline
// end-to-end time across frameworks and models.
func TestFig1aOTEFraction(t *testing.T) {
	base := DefaultCPUBaseline()
	cases := []struct {
		f Framework
		m Model
	}{
		{Cheetah, SqueezeNet}, {Cheetah, ResNet50}, {Cheetah, DenseNet121},
		{CrypTFlow2, SqueezeNet}, {CrypTFlow2, ResNet50},
		{Bolt, BERTBase}, {Bolt, BERTLarge}, {Bolt, GPT2Large},
	}
	for _, c := range cases {
		lat := EndToEnd(c.f, c.m, simnet.LAN, base)
		frac := lat.OTEFraction()
		if frac < 0.45 || frac > 0.85 {
			t.Errorf("%s/%s: OTE fraction %.2f outside the 0.45-0.85 band",
				c.f.Name, c.m.Name, frac)
		}
	}
}

// TestTable5SpeedupStructure checks the qualitative Table 5 findings:
// Ironman speeds everything up; LAN gains exceed WAN gains (comm
// becomes the bottleneck on slow links); Transformer gains exceed CNN
// gains (heavier nonlinear protocols).
func TestTable5SpeedupStructure(t *testing.T) {
	base := DefaultCPUBaseline()
	iron := testIronman()

	_, _, lanCNN := Speedup(Cheetah, ResNet50, simnet.LAN, base, iron)
	_, _, wanCNN := Speedup(Cheetah, ResNet50, simnet.WAN, base, iron)
	if lanCNN <= 1 || wanCNN <= 1 {
		t.Fatalf("Ironman must win: lan %.2f wan %.2f", lanCNN, wanCNN)
	}
	if lanCNN <= wanCNN {
		t.Fatalf("LAN speedup (%.2f) should exceed WAN (%.2f)", lanCNN, wanCNN)
	}
	_, _, lanTr := Speedup(Bolt, BERTLarge, simnet.LAN, base, iron)
	if lanTr <= lanCNN {
		t.Fatalf("Transformer speedup (%.2f) should exceed CNN (%.2f)", lanTr, lanCNN)
	}
	// Band check against the paper (LAN: 1.95-3.4x): allow slack for
	// our more conservative NMP model but demand the right regime.
	if lanCNN < 1.3 || lanCNN > 6 {
		t.Errorf("CNN LAN speedup %.2f outside plausible band", lanCNN)
	}
	if lanTr < 1.8 || lanTr > 8 {
		t.Errorf("Transformer LAN speedup %.2f outside plausible band", lanTr)
	}
}

// TestFig15OperatorSpeedups: the ~4x operator-level reductions.
func TestFig15OperatorSpeedups(t *testing.T) {
	base := DefaultCPUBaseline()
	iron := testIronman()
	for _, op := range []Op{LayerNorm, GELU, Softmax, ReLU} {
		b := OperatorBench(SiRNN, op, 1<<20, simnet.LAN, base)
		ir := OperatorBench(SiRNN, op, 1<<20, simnet.LAN, iron)
		sp := b.Total() / ir.Total()
		if sp < 2 || sp > 15 {
			t.Errorf("%v: operator speedup %.2f outside band", op, sp)
		}
	}
}

// TestFig16MatMul: role switching halves communication and buys ~1.4x
// latency.
func TestFig16MatMul(t *testing.T) {
	mm := MatMul{M: 64, K: 768, N: 768}
	if r := float64(mm.CommBytes(false)) / float64(mm.CommBytes(true)); r != 2 {
		t.Fatalf("comm ratio %.2f, want 2", r)
	}
	lr := mm.Latency(simnet.LAN, false) / mm.Latency(simnet.LAN, true)
	if lr < 1.3 || lr > 1.5 {
		t.Fatalf("latency ratio %.2f, want ~1.4", lr)
	}
}

func TestBackendsOrdering(t *testing.T) {
	// For a large budget: CPU > GPU > Ironman.
	const n = 1 << 28
	cpuB := DefaultCPUBaseline()
	gpuB := GPUBackend{Host: cpuB.Model, GPU: gpu.A6000}
	iron := testIronman()
	c, g, i := cpuB.Seconds(n), gpuB.Seconds(n), iron.Seconds(n)
	if !(c > g && g > i) {
		t.Fatalf("ordering wrong: cpu %.2f gpu %.2f ironman %.2f", c, g, i)
	}
	if cpuB.Name() == "" || gpuB.Name() == "" || iron.Name() == "" {
		t.Fatal("names empty")
	}
}

func TestUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported model")
		}
	}()
	EndToEnd(Bolt, ResNet50, simnet.LAN, DefaultCPUBaseline())
}

// TestOTEFractionZeroTotal: regression — a zero-cost latency (such as
// a zero-element OperatorBench on a free backend) used to yield NaN.
func TestOTEFractionZeroTotal(t *testing.T) {
	var l Latency
	if frac := l.OTEFraction(); frac != 0 {
		t.Fatalf("zero-total OTEFraction = %v, want 0", frac)
	}
	if math.IsNaN((Latency{OTE: 1}).OTEFraction()) {
		t.Fatal("nonzero latency must not be NaN")
	}
}

// TestGMWLayerCosts checks the engine-derived operator plumbing against
// the measured wire format: 2 OTs per AND, 3 bits per OT, log-depth
// comparison rounds.
func TestGMWLayerCosts(t *testing.T) {
	c := GMWComparisonCost(4096, 64)
	if c.ANDGates != 4096*(3*64-2) {
		t.Fatalf("comparison ANDs %d", c.ANDGates)
	}
	if c.OTs != 2*c.ANDGates {
		t.Fatal("2 OTs per AND")
	}
	if c.Exchanges != 7 {
		t.Fatalf("64-bit comparison exchanges %d, want 7", c.Exchanges)
	}
	// 6 bits per AND gate -> 0.75 B/AND (two bit-payload chosen OTs
	// of 3 wire bits each).
	if bpa := c.BytesPerAND(); bpa < 0.7 || bpa > 0.8 {
		t.Fatalf("bytes/AND %.3f outside the bit-packed band", bpa)
	}
	if GMWComparisonCost(1, 1).Exchanges != 1 {
		t.Fatal("width-1 comparison is a single layer")
	}
	m := GMWMuxCost(1000, 16)
	if m.ANDGates != 16000 || m.Exchanges != 1 {
		t.Fatalf("mux cost %+v", m)
	}
	r := GMWReLUCost(1000, 16)
	if r.ANDGates != m.ANDGates+GMWComparisonCost(1000, 16).ANDGates {
		t.Fatal("ReLU = compare + mask")
	}
	if (GMWLayerCost{}).BytesPerAND() != 0 {
		t.Fatal("empty layer has no per-gate cost")
	}
}

func TestOperatorBenchUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OperatorBench(CrypTFlow2, GELU, 100, simnet.LAN, DefaultCPUBaseline())
}

func TestArithCostModels(t *testing.T) {
	tr := ArithTripleCost(1000)
	if tr.COTs != 128_000 || tr.Exchanges != 1 {
		t.Fatalf("triple cost %+v", tr)
	}
	// 528 B per product per direction.
	if got := tr.WireBytes; got != 1000*1056 {
		t.Fatalf("wire bytes = %v, want 1056 per triple", got)
	}
	mt := ArithMatTripleCost(8, 16, 4)
	if mt.Products != 8*16*4 {
		t.Fatalf("mat triple products %+v", mt)
	}
	b2a := ArithB2ACost(100, 64)
	if b2a.COTs != 100*63 {
		t.Fatalf("b2a cost %+v", b2a)
	}
	a2b := ArithA2BCost(100, 64)
	if a2b.ANDGates != 100*int64(gmw.AdderANDGates(64)) {
		t.Fatalf("a2b cost %+v", a2b)
	}
}

func TestPreprocBytesDerivation(t *testing.T) {
	// The modeled preprocessing communication must be sublinear (well
	// under a block per correlation) and track the parameter set.
	for _, p := range ferret.Table4 {
		b := PreprocBytesFor(p)
		if b <= 0 || b >= 1 {
			t.Fatalf("%s: preproc bytes/OT %v out of the sublinear range", p.Name, b)
		}
	}
	if PreprocBytesPerOT != PreprocBytesFor(oteParams) {
		t.Fatal("PreprocBytesPerOT must be derived from the active parameter set")
	}
}
