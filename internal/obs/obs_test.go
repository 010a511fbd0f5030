package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("x")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(1)
	if got := r.Histogram("c").Snapshot(); got.Count != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	if n := r.Drop(func(string) bool { return true }); n != 0 {
		t.Fatal("nil registry drop must be 0")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 samples uniform in bucket (1,2].
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 1 || s.P50 > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", s.P50)
	}
	if s.P99 < 1 || s.P99 > 2 {
		t.Fatalf("p99 = %v, want within (1,2]", s.P99)
	}
	// Overflow samples saturate at the last bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Snapshot().P50; got != 2 {
		t.Fatalf("overflow quantile = %v, want saturation at 2", got)
	}
	// Split population: half at 0.5, half at 3 → p50 in first bucket,
	// p95 in the (2,∞) overflow.
	h3 := NewHistogram([]float64{1, 2})
	for i := 0; i < 50; i++ {
		h3.Observe(0.5)
		h3.Observe(3)
	}
	if got := h3.quantileLocked(0.25); got > 1 {
		t.Fatalf("p25 = %v, want <= 1", got)
	}
	if got := h3.Snapshot().P95; got != 2 {
		t.Fatalf("p95 = %v, want overflow saturation 2", got)
	}
}

func TestLabelsAndName(t *testing.T) {
	l := Labels("session", "3", "half", "sender")
	if l != `session="3",half="sender"` {
		t.Fatalf("labels = %s", l)
	}
	n := Name("pool_draws_total", l)
	if n != `pool_draws_total{session="3",half="sender"}` {
		t.Fatalf("name = %s", n)
	}
	if Name("x", "") != "x" {
		t.Fatal("empty labels must not add braces")
	}
	fam, lab := splitName(n)
	if fam != "pool_draws_total" || lab != `session="3",half="sender"` {
		t.Fatalf("splitName = %q / %q", fam, lab)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("ironman_pool_draws_total", Labels("half", "sender"))).Add(5)
	r.Counter(Name("ironman_pool_draws_total", Labels("half", "receiver"))).Add(7)
	r.Gauge("ironman_otserv_sessions").Set(2)
	h := r.Histogram(Name("ironman_pool_draw_wait_seconds", Labels("half", "sender")))
	h.Observe(0.002)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ironman_pool_draws_total counter",
		`ironman_pool_draws_total{half="receiver"} 7`,
		`ironman_pool_draws_total{half="sender"} 5`,
		"# TYPE ironman_otserv_sessions gauge",
		"ironman_otserv_sessions 2",
		"# TYPE ironman_pool_draw_wait_seconds histogram",
		`ironman_pool_draw_wait_seconds_bucket{half="sender",le="0.004"} 1`,
		`ironman_pool_draw_wait_seconds_bucket{half="sender",le="+Inf"} 2`,
		`ironman_pool_draw_wait_seconds_count{half="sender"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE lines must precede their series and appear exactly once.
	if strings.Count(out, "# TYPE ironman_pool_draws_total") != 1 {
		t.Fatalf("family TYPE line repeated:\n%s", out)
	}
}

func TestRegistryDrop(t *testing.T) {
	r := NewRegistry()
	r.Counter(`a_total{session="1"}`).Add(1)
	r.Counter(`a_total{session="2"}`).Add(1)
	r.Histogram(`b_seconds{session="1"}`).Observe(1)
	n := r.Drop(func(name string) bool { return strings.Contains(name, `session="1"`) })
	if n != 2 {
		t.Fatalf("dropped %d series, want 2", n)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != `a_total{session="2"}` {
		t.Fatalf("unexpected survivors: %+v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Histogram("h_seconds").Observe(0.001)
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
