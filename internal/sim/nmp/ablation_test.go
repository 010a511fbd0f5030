package nmp

import (
	"testing"

	"ironman/internal/ferret"
	"ironman/internal/lpn"
)

// Ablation benches for the design choices DESIGN.md calls out. Each
// reports the modeled LPN latency as a custom metric so the
// bench harness records the effect size.

func ablCfg() Config {
	c := DefaultConfig(16, 256<<10)
	c.SampleRows = 60000
	return c
}

func ablParams() ferret.Params { p, _ := ferret.ParamsByName("2^20"); return p }

// BenchmarkAblationSortingOff: no compile-time sorting at all.
func BenchmarkAblationSortingOff(b *testing.B) {
	var sec float64
	for i := 0; i < b.N; i++ {
		st, err := simulateLPN(ablCfg(), ablParams(), lpn.SortOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sec = st.Seconds
	}
	b.ReportMetric(sec*1e3, "lpn-ms")
}

// BenchmarkAblationColumnSwapOnly: spatial locality only (Fig 11(b)).
func BenchmarkAblationColumnSwapOnly(b *testing.B) {
	var sec float64
	for i := 0; i < b.N; i++ {
		st, err := simulateLPN(ablCfg(), ablParams(), lpn.SortOptions{ColumnSwap: true})
		if err != nil {
			b.Fatal(err)
		}
		sec = st.Seconds
	}
	b.ReportMetric(sec*1e3, "lpn-ms")
}

// BenchmarkAblationFullSort: column swap + row look-ahead (Fig 11(c)).
func BenchmarkAblationFullSort(b *testing.B) {
	var sec float64
	for i := 0; i < b.N; i++ {
		st, err := SimulateLPN(ablCfg(), ablParams())
		if err != nil {
			b.Fatal(err)
		}
		sec = st.Seconds
	}
	b.ReportMetric(sec*1e3, "lpn-ms")
}

// BenchmarkAblationRowWeight sweeps the LPN row weight d around the
// baseline 10: heavier codes cost proportionally more bandwidth.
func BenchmarkAblationRowWeight(b *testing.B) {
	for _, d := range []int{5, 10, 20} {
		b.Run(map[int]string{5: "d5", 10: "d10", 20: "d20"}[d], func(b *testing.B) {
			p := ablParams()
			p.D = d
			cfg := ablCfg()
			var sec float64
			for i := 0; i < b.N; i++ {
				st, err := SimulateLPN(cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				sec = st.Seconds
			}
			b.ReportMetric(sec*1e3, "lpn-ms")
		})
	}
}

// TestAblationOrdering pins the expected effect directions: each
// sorting stage helps.
func TestAblationOrdering(t *testing.T) {
	cfg := ablCfg()
	p := ablParams()
	none, err := simulateLPN(cfg, p, lpn.SortOptions{})
	if err != nil {
		t.Fatal(err)
	}
	swap, err := simulateLPN(cfg, p, lpn.SortOptions{ColumnSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimulateLPN(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(full.CacheHitRate > swap.CacheHitRate && swap.CacheHitRate > none.CacheHitRate) {
		t.Fatalf("hit rates should order none < swap < full: %.3f %.3f %.3f",
			none.CacheHitRate, swap.CacheHitRate, full.CacheHitRate)
	}
	if !(full.Seconds < none.Seconds) {
		t.Fatalf("full sorting should beat no sorting: %.4f vs %.4f", full.Seconds, none.Seconds)
	}
}
