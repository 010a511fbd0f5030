// Package obs is the unified observability layer: a concurrent
// metrics registry (counters, gauges, fixed-bucket latency
// histograms) whose one export is the Prometheus text exposition
// (prom.go), and span-based phase tracing that emits Chrome
// trace-event JSON (trace.go). It exists to reproduce, from measured
// software, the phase-breakdown methodology the paper starts from —
// profile OT extension into its phases (base OT, GGM/SPCOT expansion,
// LPN encoding, hashing) to locate the memory-bound bottleneck before
// accelerating it — and to give the dispenser fleet a scrape surface.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - Zero external dependencies: the standard library only.
//   - Nil-safe everywhere: every method works on a nil receiver as a
//     no-op, so instrumented hot paths cost one nil check when
//     observability is disabled (the overhead budget is asserted by
//     TestDisabledOverheadBudget).
//   - No wire perturbation: instrumentation only observes local
//     compute and byte counters; protocol transcripts are guarded by
//     the ferret transcript-determinism tests run with tracing on.
//
// Metric naming follows the Prometheus convention
// ironman_<subsystem>_<what>_<unit> with labels appended via Name /
// Labels, e.g. ironman_pool_draws_total{session="3",half="sender"}.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric. A nil *Gauge is a no-op
// sink.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// latencyBuckets are every histogram's upper bounds, in seconds:
// exponential (x4) from 1 µs to 16 s — wide enough for a sub-µs warm
// pool draw and a multi-second cold 2^24 Extend refill in one
// histogram, bounded at 14 buckets so a registry of many series stays
// small.
var latencyBuckets = [...]float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
	1, 4, 16,
}

// Histogram is a bounded-bucket latency histogram over latencyBuckets,
// exposed as cumulative Prometheus buckets. Observations above the
// last bound land in an implicit +Inf bucket. The zero value is ready
// to use; a nil *Histogram is a no-op sink.
type Histogram struct {
	mu      sync.Mutex
	buckets [len(latencyBuckets) + 1]uint64 // last is +Inf
	count   uint64
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(latencyBuckets[:], v)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// snapshotBuckets returns (cumulative counts, count, sum) for the
// Prometheus exposition; cum[i] counts samples <= latencyBuckets[i],
// and the last entry is the +Inf bucket.
func (h *Histogram) snapshotBuckets() ([]uint64, uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.buckets))
	running := uint64(0)
	for i, c := range h.buckets {
		running += c
		cum[i] = running
	}
	return cum, h.count, h.sum
}

// Labels formats alternating key/value pairs into the Prometheus
// label-set syntax (without braces): Labels("session", "3", "half",
// "sender") == `session="3",half="sender"`. Keys are emitted in the
// given order; %q escaping covers the format's \, " and \n rules.
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// Name joins a metric family with an optional label set:
// Name("ironman_pool_draws_total", `session="3"`) ==
// `ironman_pool_draws_total{session="3"}`.
func Name(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// splitName separates a (possibly labeled) series name into family and
// label set.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// Registry is a concurrent get-or-create store of named metrics. A nil
// *Registry hands out nil instruments, so a code path instrumented
// against a registry that was never configured stays a chain of no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// over latencyBuckets on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Drop removes every series whose full name matches pred and reports
// how many were removed. Serving layers use it to retire per-session
// series at teardown, so a long-lived registry's cardinality is
// bounded by live sessions, not lifetime sessions.
func (r *Registry) Drop(pred func(name string) bool) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.counters {
		if pred(name) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gauges {
		if pred(name) {
			delete(r.gauges, name)
			n++
		}
	}
	for name := range r.hists {
		if pred(name) {
			delete(r.hists, name)
			n++
		}
	}
	return n
}
