package main

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"text/tabwriter"

	"ironman/internal/obs"
)

// recorder is the traced pass's span sink: an obs.Tracer (so spans the
// program already emits through its public Trace/Observe hooks land in
// the same timeline) plus the id counter that lets the benchmark's own
// spans name their parent. A nil recorder records nothing and costs a
// nil check.
type recorder struct {
	tr  *obs.Tracer
	ids atomic.Int64
}

func newRecorder() *recorder { return &recorder{tr: obs.NewTracer()} }

// tracer is the obs.Tracer to hand to the program's own hooks; nil
// (disabled) on a nil recorder.
func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// span is one benchmark-side span: name, start, end, parent and the
// workload-iteration id (the last three ride in the trace-event args).
type span struct {
	sp     obs.Span
	id     int
	parent int
	iter   int
}

// begin opens a span under parent (the zero span for a root) on trace
// lane tid. iter is the workload iteration it belongs to; -1 marks
// set-up, warm-up and layer probes.
func (r *recorder) begin(name string, parent span, iter, tid int) span {
	if r == nil {
		return span{}
	}
	return span{sp: r.tr.Span(name, "bench", tid), id: int(r.ids.Add(1)), parent: parent.id, iter: iter}
}

func (s span) end() {
	if s.sp.Live() {
		s.sp.EndArgs(map[string]any{"id": s.id, "parent": s.parent, "iter": s.iter})
	}
}

// node is one span in the reconstructed tree. Times are microseconds
// on the tracer's clock.
type node struct {
	name   string
	tid    int
	id     int
	parent int // 0 = root
	iter   int
	start  float64
	end    float64
	self   float64 // duration minus the part its children cover
}

func (n node) dur() float64 { return n.end - n.start }

// spanTree rebuilds the parent links. Benchmark spans carry them in
// their args. Spans the program emitted itself (Options.Trace,
// Party.Observe) carry none: each is adopted by the shortest span on
// the same lane that contains it, and inherits that span's iteration;
// one with no such container (a worker lane) stays out of the tree.
func spanTree(events []obs.TraceEvent) []node {
	var nodes []node
	var foreign []node
	maxID := 0
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		n := node{name: ev.Name, tid: ev.Tid, start: ev.Ts, end: ev.Ts + ev.Dur, iter: -1}
		if id, ok := ev.Args["id"].(int); ok {
			n.id = id
			n.parent, _ = ev.Args["parent"].(int)
			n.iter, _ = ev.Args["iter"].(int)
			nodes = append(nodes, n)
			if id > maxID {
				maxID = id
			}
		} else {
			foreign = append(foreign, n)
		}
	}
	// Longest first, so a foreign span's possible containers (including
	// other foreign spans) are already in the tree when it is placed.
	sort.SliceStable(foreign, func(i, j int) bool { return foreign[i].dur() > foreign[j].dur() })
	for _, f := range foreign {
		best := -1
		for i, c := range nodes {
			if c.tid != f.tid || c.start > f.start || c.end < f.end {
				continue
			}
			if best < 0 || c.dur() < nodes[best].dur() {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		maxID++
		f.id, f.parent, f.iter = maxID, nodes[best].id, nodes[best].iter
		nodes = append(nodes, f)
	}
	selfTimes(nodes)
	return nodes
}

// selfTimes fills each node's self time: its duration minus the part
// of that interval its child spans cover (children may overlap — two
// parties run side by side — so the cover is a union, clipped to the
// parent).
func selfTimes(nodes []node) {
	kids := make(map[int][][2]float64)
	for _, n := range nodes {
		if n.parent != 0 {
			kids[n.parent] = append(kids[n.parent], [2]float64{n.start, n.end})
		}
	}
	for i := range nodes {
		n := &nodes[i]
		iv := kids[n.id]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := 0.0, n.start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > n.end {
				end = n.end
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		n.self = n.dur() - covered
	}
}

// layerRow is one span name's aggregate over the timed iterations.
type layerRow struct {
	name    string
	n       int
	totalUS float64
	selfUS  float64
}

// layerTable aggregates the spans of timed iterations (iter >= 0) on
// one lane by name, largest self time first. One lane, because spans
// nest there: two parties side by side would count the same wall time
// twice.
func layerTable(nodes []node, tid int) []layerRow {
	byName := make(map[string]*layerRow)
	for _, n := range nodes {
		if n.iter < 0 || n.tid != tid {
			continue
		}
		r := byName[n.name]
		if r == nil {
			r = &layerRow{name: n.name}
			byName[n.name] = r
		}
		r.n++
		r.totalUS += n.dur()
		r.selfUS += n.self
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].selfUS != rows[j].selfUS {
			return rows[i].selfUS > rows[j].selfUS
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// durations lists the durations (seconds) of the timed-iteration spans
// called name on lane tid (any lane when tid < 0).
func durations(nodes []node, name string, tid int) []float64 {
	var out []float64
	for _, n := range nodes {
		if n.name == name && n.iter >= 0 && (tid < 0 || n.tid == tid) {
			out = append(out, n.dur()/1e6)
		}
	}
	return out
}

// selfShare is the summed self time of the timed-iteration spans
// called name on lane tid, as a share of their summed duration.
func selfShare(nodes []node, name string, tid int) float64 {
	var self, total float64
	for _, n := range nodes {
		if n.name == name && n.iter >= 0 && n.tid == tid {
			self += n.self
			total += n.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return self / total
}

// printLayerTable renders the per-workload layer table: every span
// name with its count, total and self time, and self time as a share
// of the summed iteration ("op") spans — so the last column adds up to
// 100 % and the op row's own share is the part no layer span covers.
func printLayerTable(w io.Writer, rows []layerRow) {
	var opTotal float64
	for _, r := range rows {
		if r.name == opSpan {
			opTotal = r.totalUS
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tn\ttotal ms\tself ms\tself %\t")
	for _, r := range rows {
		share := 0.0
		if opTotal > 0 {
			share = 100 * r.selfUS / opTotal
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.1f\t\n", r.name, r.n, r.totalUS/1e3, r.selfUS/1e3, share)
	}
	_ = tw.Flush()
}
