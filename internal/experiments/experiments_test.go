package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickResults memoizes each experiment's quick run, so the registry
// test and the shape tests below pay for every sweep once between them.
var quickResults = map[string]Result{}

func quickResult(t *testing.T, name string) Result {
	t.Helper()
	if r, ok := quickResults[name]; ok {
		return r
	}
	for _, e := range All {
		if e.Name == name {
			r, err := e.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			quickResults[name] = r
			return r
		}
	}
	t.Fatalf("no experiment named %q", name)
	return Result{}
}

// TestRegistry pins the one enumeration: exactly the paper's 14 items,
// each producing rows, a rendered table and a headline.
func TestRegistry(t *testing.T) {
	want := strings.Fields("table2 table4 table5 table6 fig1a fig1b fig1c fig7 fig8 fig12 fig13 fig14 fig15 fig16")
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" {
			t.Errorf("%s: no description", e.Name)
		}
		r := quickResult(t, e.Name)
		if !strings.HasSuffix(r.Text, "\n") {
			t.Errorf("%s: rendered text %q must be non-empty whole lines", e.Name, r.Text)
		}
		h := r.Headline
		if h.Metric == "" || h.Paper == "" || math.IsNaN(h.Value) || math.IsInf(h.Value, 0) {
			t.Errorf("%s: headline %+v needs a metric, a finite value and the paper's side", e.Name, h)
		}
		if data, err := json.Marshal(r.Rows); err != nil || string(data) == "null" {
			t.Errorf("%s: rows marshal to %q, %v", e.Name, data, err)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("paper item %q missing from All", name)
		}
	}
	if len(All) != len(want) {
		t.Errorf("All has %d entries, the paper's evaluation has %d", len(All), len(want))
	}
}

// TestQuickGolden pins every experiment's quick rows and headline to
// testdata/quick.json, so a model change that moves any figure fails
// here instead of passing unnoticed. The file has the shape of
// `ironman-bench -quick -json`'s experiments, keeping "data" and
// "headline" and dropping "seconds"; after an intended change,
// re-record only the experiments that moved. Floats compare at 1e-9
// relative, so a platform that fuses multiply-adds still passes.
func TestQuickGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Data     any      `json:"data"`
		Headline Headline `json:"headline"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(All) {
		t.Errorf("golden has %d experiments, All has %d", len(golden), len(All))
	}
	for _, e := range All {
		want, ok := golden[e.Name]
		if !ok {
			t.Errorf("%s: no golden entry", e.Name)
			continue
		}
		r := quickResult(t, e.Name)
		data, err := json.Marshal(r.Rows)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if err := sameJSON(got, want.Data, "data"); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		h, wh := r.Headline, want.Headline
		if h.Metric != wh.Metric || h.Paper != wh.Paper || !closeFloat(h.Value, wh.Value) {
			t.Errorf("%s: headline %+v, golden %+v", e.Name, h, wh)
		}
	}
}

// closeFloat reports a and b equal to 1e-9 relative.
func closeFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sameJSON compares two decoded JSON values, floats by closeFloat,
// naming the path of the first difference.
func sameJSON(got, want any, path string) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, golden %v", path, got, want)
		}
		for k, wv := range w {
			if err := sameJSON(g[k], wv, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, golden %v", path, got, want)
		}
		for i, wv := range w {
			if err := sameJSON(g[i], wv, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case float64:
		if g, ok := got.(float64); !ok || !closeFloat(g, w) {
			return fmt.Errorf("%s: got %v, golden %v", path, got, want)
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, golden %v", path, got, want)
		}
	}
	return nil
}

func BenchmarkPaper(b *testing.B) {
	for _, e := range All {
		b.Run(e.Name, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = e.Run(true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Headline.Value, r.Headline.Metric)
		})
	}
}

func TestFigure1bMonotone(t *testing.T) {
	res := quickResult(t, "fig1b")
	rows := res.Rows.([]Fig1bRow)
	if len(rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		total := r.Init + r.SPCOT + r.LPN
		if total <= prev {
			t.Fatalf("%s: latency %f not increasing", r.ParamSet, total)
		}
		prev = total
	}
	if !strings.Contains(res.Text, "2^24") {
		t.Fatal("render missing rows")
	}
}

func TestFigure1cRenders(t *testing.T) {
	out := quickResult(t, "fig1c").Text
	if !strings.Contains(out, "compute-bound") || !strings.Contains(out, "memory-bound") {
		t.Fatal("roofline must show both regimes")
	}
}

func TestFigure7Trends(t *testing.T) {
	rows := quickResult(t, "fig7").Rows.([]Fig7Row)
	if len(rows) != 5 {
		t.Fatalf("want 5 arities")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ops >= rows[i-1].Ops && rows[i].M <= 4 {
			t.Fatalf("ops should fall from m=%d to m=%d", rows[i-1].M, rows[i].M)
		}
		if rows[i].CommBytes <= rows[i-1].CommBytes {
			t.Fatalf("comm should rise with m")
		}
	}
	// 4-ary is the sweet spot: big op cut, small comm growth (§4.1).
	if f := float64(rows[0].Ops) / float64(rows[1].Ops); f < 2.8 || f > 3.2 {
		t.Fatalf("m=4 op reduction %.2f, want ~3", f)
	}
}

func TestFigure8Renders(t *testing.T) {
	res := quickResult(t, "fig8")
	rows, out := res.Rows.([]Fig8Row), res.Text
	for _, s := range []string{"depth-first", "breadth-first", "hybrid"} {
		if !strings.Contains(out, s) {
			t.Fatalf("missing schedule %s", s)
		}
	}
	// With 16 trees the hybrid schedule must reach full utilization.
	var ok bool
	for _, r := range rows {
		if r.Schedule == "hybrid" && r.Trees == 16 && r.Utilization == 1 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("hybrid at 16 trees should hit 100% utilization")
	}
}

func TestFigure12Shape(t *testing.T) {
	rows := quickResult(t, "fig12").Rows.([]Fig12Row)
	if len(rows) != 2*4*5 {
		t.Fatalf("want 40 rows, got %d", len(rows))
	}
	// Rank scaling: at fixed cache+set, more ranks -> faster NMP.
	for _, cache := range []int{256, 1024} {
		var prev float64
		for _, ranks := range []int{2, 4, 8, 16} {
			for _, r := range rows {
				if r.CacheKB == cache && r.Ranks == ranks && r.ParamSet == "2^20" {
					if prev > 0 && r.NMPSec >= prev {
						t.Fatalf("%dKB: %d ranks not faster", cache, ranks)
					}
					prev = r.NMPSec
				}
			}
		}
	}
	// Cache scaling: 1MB beats 256KB at 16 ranks for the small sets.
	lo256, _ := speedupRange(rows, 256, 16)
	lo1024, hi1024 := speedupRange(rows, 1024, 16)
	if lo1024 <= lo256 {
		t.Fatalf("1MB speedups (%.1f) should dominate 256KB (%.1f)", lo1024, lo256)
	}
	if hi1024 < 5 {
		t.Fatalf("peak speedup %.1f implausibly low", hi1024)
	}
}

func TestFigure13(t *testing.T) {
	rows := quickResult(t, "fig13").Rows.(Fig13Rows)
	a, b := rows.A, rows.B
	if len(a) != 4 {
		t.Fatal("want 4 ablation points")
	}
	if a[3].Speedup < 5.5 || a[3].Speedup > 6.5 {
		t.Fatalf("combined ablation speedup %.2f, want ~6", a[3].Speedup)
	}
	for i, r := range b {
		// The optimized design hides under LPN at every rank count (the
		// §6.2 conclusion), and the op ablation holds at every point.
		if r.SPCOTSec["ChaChax4"] >= r.LPNSec {
			t.Fatalf("%d ranks: ChaChax4 SPCOT should hide under LPN", r.Ranks)
		}
		if ratio := r.SPCOTSec["AESx2"] / r.SPCOTSec["ChaChax4"]; ratio < 5.5 || ratio > 6.5 {
			t.Fatalf("%d ranks: AES/ChaCha ratio %.2f, want ~6", r.Ranks, ratio)
		}
		// SPCOT is a fixed-engine cost while LPN parallelizes across
		// ranks, so the AES baseline's share of the overlap budget grows
		// with rank count — the §6.2 argument for optimizing SPCOT.
		// (Our conservative LPN model keeps the crossover beyond 16
		// ranks; the fig13 headline ironman-bench prints has the paper's
		// side.)
		if i > 0 && r.SPCOTSec["AESx2"]/r.LPNSec <= b[i-1].SPCOTSec["AESx2"]/b[i-1].LPNSec {
			t.Fatalf("AESx2/LPN ratio should grow with ranks")
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	rows := quickResult(t, "fig14").Rows.([]Fig14Row)
	// Bigger cache -> hit rate never falls for a given set.
	bySet := map[string][]Fig14Row{}
	for _, r := range rows {
		bySet[r.ParamSet] = append(bySet[r.ParamSet], r)
	}
	for set, rs := range bySet {
		for i := 1; i < len(rs); i++ {
			if rs[i].HitRate < rs[i-1].HitRate-0.02 {
				t.Fatalf("%s: hit rate dropped from %dKB to %dKB", set, rs[i-1].CacheKB, rs[i].CacheKB)
			}
		}
	}
}

func TestFigure15Band(t *testing.T) {
	for _, r := range quickResult(t, "fig15").Rows.([]Fig15Row) {
		if r.Speedup < 1.5 {
			t.Fatalf("%s/%s: operator speedup %.2f too low", r.Framework, r.Op, r.Speedup)
		}
	}
}

func TestFigure16Ratios(t *testing.T) {
	for _, r := range quickResult(t, "fig16").Rows.([]Fig16Row) {
		if float64(r.CommBase)/float64(r.CommUni) != 2 {
			t.Fatal("comm ratio must be 2")
		}
		lr := r.LatBase / r.LatUni
		if lr < 1.3 || lr > 1.5 {
			t.Fatalf("latency ratio %.2f, want ~1.4", lr)
		}
	}
}

func TestTable5Structure(t *testing.T) {
	rows := quickResult(t, "table5").Rows.([]Table5Row)
	if len(rows) != (6+6+4)*2 {
		t.Fatalf("want 32 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s/%s/%s: speedup %.2f should exceed 1", r.Framework, r.Model, r.Network, r.Speedup)
		}
	}
}

func TestStaticTablesRender(t *testing.T) {
	if !strings.Contains(quickResult(t, "table2").Text, "ChaCha8") {
		t.Fatal("table 2 render")
	}
	if !strings.Contains(quickResult(t, "table4").Text, "2^24") {
		t.Fatal("table 4 render")
	}
	if !strings.Contains(quickResult(t, "table6").Text, "cache=1024KB") {
		t.Fatal("table 6 render")
	}
}
