package obs

import (
	"testing"
	"time"
)

// disabledBudget is the per-call ceiling for instrumentation on a hot
// path when observability is off. The real cost is one nil check
// (sub-nanosecond); the budget is two orders of magnitude looser so a
// loaded CI host never flakes, while still catching an accidental
// time.Now, map allocation or lock slipping into the disabled path
// (each of those costs ≥ tens of ns).
const disabledBudget = 200 * time.Nanosecond

// TestDisabledOverheadBudget asserts the overhead contract the
// instrumented hot paths (ferret Extend phases, gmw exchanges, pool
// draws) rely on: with a nil tracer/registry, instrument calls are
// near-free.
func TestDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion")
	}
	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"nil-span", func(b *testing.B) {
			var tr *Tracer
			for i := 0; i < b.N; i++ {
				tr.Span("x", "y", 0).EndArgs(nil)
			}
		}},
		{"nil-counter", func(b *testing.B) {
			var c *Counter
			for i := 0; i < b.N; i++ {
				c.Add(1)
			}
		}},
		{"nil-histogram", func(b *testing.B) {
			var h *Histogram
			for i := 0; i < b.N; i++ {
				h.Observe(1)
			}
		}},
		{"nil-gauge", func(b *testing.B) {
			var g *Gauge
			for i := 0; i < b.N; i++ {
				g.Set(int64(i))
			}
		}},
	}
	for _, tc := range cases {
		res := testing.Benchmark(tc.fn)
		perOp := time.Duration(res.NsPerOp())
		if perOp > disabledBudget {
			t.Errorf("%s: %v/op exceeds disabled-instrumentation budget %v", tc.name, perOp, disabledBudget)
		}
		if res.AllocsPerOp() > 0 {
			t.Errorf("%s: %d allocs/op on the disabled path", tc.name, res.AllocsPerOp())
		}
	}
}

// BenchmarkEnabledSpan documents the cost of a live span (time.Now x2
// + one mutex append) for the overhead table in DESIGN.md.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span("x", "y", 0).EndArgs(nil)
	}
}

// BenchmarkEnabledCounter documents the cost of a live counter add.
func BenchmarkEnabledCounter(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
