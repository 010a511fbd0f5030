package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer collects phase spans and renders them as Chrome trace-event
// JSON: load the output in chrome://tracing or https://ui.perfetto.dev
// to see the per-phase, per-worker breakdown of a run the way the
// paper's profiling figures slice OT extension. A nil *Tracer is
// disabled: Span returns an inert Span and the hot path pays one nil
// check (no time.Now call).
//
// Span taxonomy (see DESIGN.md "Observability"): names are
// dot-separated phase identifiers ("spcot.expand", "lpn.encode"), the
// category groups them ("extend" for main-thread phase spans,
// "extend.worker" for per-worker spans, "gmw"/"arith"/"pool" for the
// engines). Thread ids (tids) separate concurrent actors: protocol
// endpoints get a base tid (NameThread labels it) and their workers
// base+1+worker.
type Tracer struct {
	mu      sync.Mutex
	base    time.Time
	events  []TraceEvent
	threads map[int]string
}

// TraceEvent is one Chrome trace-event object. Complete spans use
// Ph "X" with microsecond Ts/Dur; thread-name metadata uses Ph "M".
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since tracer start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer starts an enabled tracer; its clock zero is now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now(), threads: make(map[int]string)}
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// NameThread labels a tid in the rendered trace (Perfetto shows the
// name on the thread track).
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Span opens a span on thread tid. End (or EndArgs) closes it. The
// returned value is inert when the tracer is nil.
func (t *Tracer) Span(name, cat string, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, tid: tid, begin: time.Now()}
}

// Span is one in-flight phase measurement. The zero Span is inert.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	begin time.Time
}

// EndArgs closes the span with key/value annotations (rendered in the
// trace viewer's args pane). Allocate the map only when the span is
// live: callers should guard with Live() or build args inline.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	end := time.Now()
	ev := TraceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		Ts:   float64(s.begin.Sub(s.t.base)) / float64(time.Microsecond),
		Dur:  float64(end.Sub(s.begin)) / float64(time.Microsecond),
		Tid:  s.tid,
		Args: args,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// Live reports whether the span records anything — guard allocations
// for EndArgs with it.
func (s Span) Live() bool { return s.t != nil }

// Events returns a copy of the recorded spans (metadata events are
// synthesized at write time, not included here), sorted by start
// time.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

// traceFile is the JSON object format of the trace-event spec.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON renders the trace in the Chrome trace-event JSON object
// format.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]TraceEvent, 0, len(t.threads)+len(t.events))
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", Tid: tid,
			Args: map[string]any{"name": t.threads[tid]},
		})
	}
	events = append(events, t.events...)
	t.mu.Unlock()
	sort.SliceStable(events[len(tids):], func(i, j int) bool {
		return events[len(tids)+i].Ts < events[len(tids)+j].Ts
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
