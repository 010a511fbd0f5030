package nmp

import (
	"testing"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/lpn"
	"ironman/internal/prg"
)

var seed = block.New(1, 2)

// fastCfg keeps simulation samples small for unit tests.
func fastCfg(ranks, cacheBytes int) Config {
	c := DefaultConfig(ranks, cacheBytes)
	c.SampleRows = 20000
	return c
}

func set20() ferret.Params { p, _ := ferret.ParamsByName("2^20"); return p }

func TestLPNMoreRanksFaster(t *testing.T) {
	params := set20()
	var prev float64
	for i, ranks := range []int{2, 4, 8, 16} {
		st, err := SimulateLPN(fastCfg(ranks, 256<<10), params, lpn.DefaultSort(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seconds <= 0 {
			t.Fatal("non-positive latency")
		}
		if i > 0 && st.Seconds >= prev {
			t.Fatalf("%d ranks (%.4fs) not faster than fewer ranks (%.4fs)", ranks, st.Seconds, prev)
		}
		prev = st.Seconds
	}
}

func TestLPNBiggerCacheFaster(t *testing.T) {
	params := set20()
	small, err := SimulateLPN(fastCfg(16, 64<<10), params, lpn.DefaultSort(), seed)
	if err != nil {
		t.Fatal(err)
	}
	big, err := SimulateLPN(fastCfg(16, 1<<20), params, lpn.DefaultSort(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if big.CacheHitRate <= small.CacheHitRate {
		t.Fatalf("1MB hit rate %.3f should beat 64KB %.3f", big.CacheHitRate, small.CacheHitRate)
	}
	if big.Seconds >= small.Seconds {
		t.Fatalf("1MB latency %.4f should beat 64KB %.4f", big.Seconds, small.Seconds)
	}
}

func TestSortingImprovesLPN(t *testing.T) {
	params := set20()
	cfg := fastCfg(16, 256<<10)
	unsorted, err := SimulateLPN(cfg, params, lpn.SortOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := SimulateLPN(cfg, params, lpn.DefaultSort(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.CacheHitRate <= unsorted.CacheHitRate {
		t.Fatalf("sorted hit rate %.3f should beat unsorted %.3f",
			sorted.CacheHitRate, unsorted.CacheHitRate)
	}
	if sorted.Seconds >= unsorted.Seconds {
		t.Fatalf("sorted latency %.4f should beat unsorted %.4f",
			sorted.Seconds, unsorted.Seconds)
	}
}

// TestFigure13aOrdering: SPCOT latency ordering of the four design
// points — 4-ary ChaCha < 2-ary ChaCha < 4-ary AES < 2-ary AES, with
// the combined optimization ~6x over the baseline.
func TestFigure13aOrdering(t *testing.T) {
	cfg := fastCfg(16, 256<<10)
	lat := func(kind prg.Kind, arity int) float64 {
		st, err := SimulateSPCOT(cfg, prg.New(kind, arity), 4096, 480)
		if err != nil {
			t.Fatal(err)
		}
		return st.Seconds
	}
	aes2 := lat(prg.AES, 2)
	aes4 := lat(prg.AES, 4)
	cha2 := lat(prg.ChaCha8, 2)
	cha4 := lat(prg.ChaCha8, 4)
	if !(cha4 < cha2 && cha2 < aes4 && aes4 < aes2) {
		t.Fatalf("ordering wrong: aes2=%.5f aes4=%.5f cha2=%.5f cha4=%.5f", aes2, aes4, cha2, cha4)
	}
	if r := aes2 / cha4; r < 5.5 || r > 6.5 {
		t.Fatalf("combined speedup %.2f, want ~6 (Fig 13a)", r)
	}
	if r := aes2 / aes4; r < 1.4 || r > 1.6 {
		t.Fatalf("4-ary AES speedup %.2f, want ~1.5", r)
	}
	if r := aes2 / cha2; r < 1.9 || r > 2.1 {
		t.Fatalf("2-ary ChaCha speedup %.2f, want ~2", r)
	}
}

// TestFigure13bSPCOTBelowLPN: with the full optimization the SPCOT
// latency stays below LPN across rank counts, so LPN bounds the
// overlapped pipeline (§6.2).
func TestFigure13bSPCOTBelowLPN(t *testing.T) {
	params := set20()
	for _, ranks := range []int{2, 4, 8, 16} {
		cfg := fastCfg(ranks, 256<<10)
		sp, err := SimulateSPCOT(cfg, prg.New(prg.ChaCha8, 4), params.L, params.T)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := SimulateLPN(cfg, params, lpn.DefaultSort(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Seconds >= lp.Seconds {
			t.Fatalf("%d ranks: SPCOT %.5fs should stay below LPN %.5fs", ranks, sp.Seconds, lp.Seconds)
		}
	}
}

func TestOverlapHelps(t *testing.T) {
	params := set20()
	cfg := fastCfg(16, 256<<10)
	p := prg.New(prg.ChaCha8, 4)
	// One full execution's worth of OTs (the nominal 2^20 is a hair
	// above Usable(), which would round up to two executions).
	over, err := SimulateOTE(cfg, params, p, lpn.DefaultSort(), params.Usable())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlap = false
	seq, err := SimulateOTE(cfg, params, p, lpn.DefaultSort(), params.Usable())
	if err != nil {
		t.Fatal(err)
	}
	if over.TotalSeconds >= seq.TotalSeconds {
		t.Fatalf("overlap %.4f should beat sequential %.4f", over.TotalSeconds, seq.TotalSeconds)
	}
	if over.Executions != 1 || seq.Executions != 1 {
		t.Fatalf("one execution expected, got %d", over.Executions)
	}
}

func TestExecutionsCount(t *testing.T) {
	params := set20()
	cfg := fastCfg(16, 1<<20)
	res, err := SimulateOTE(cfg, params, prg.New(prg.ChaCha8, 4), lpn.DefaultSort(), 1<<25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 33 { // ceil(2^25 / 1047756)
		t.Fatalf("executions = %d, want 33", res.Executions)
	}
	if res.TotalSeconds <= res.ExecSeconds {
		t.Fatal("total must accumulate executions")
	}
}

func TestBadConfigRejected(t *testing.T) {
	params := set20()
	if _, err := SimulateLPN(Config{}, params, lpn.DefaultSort(), seed); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := SimulateSPCOT(Config{}, prg.New(prg.AES, 2), 16, 1); err == nil {
		t.Fatal("expected config error")
	}
}
