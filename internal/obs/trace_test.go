package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(1, "sender")
	sp := tr.Span("lpn.encode", "extend", 1)
	time.Sleep(2 * time.Millisecond)
	sp.EndArgs(map[string]any{"rows": 100})
	tr.Span("spcot.expand", "extend.worker", 2).EndArgs(nil)

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	var encode *TraceEvent
	for i := range events {
		if events[i].Name == "lpn.encode" {
			encode = &events[i]
		}
	}
	if encode == nil {
		t.Fatal("lpn.encode span missing")
	}
	if encode.Ph != "X" || encode.Tid != 1 || encode.Cat != "extend" {
		t.Fatalf("bad span shape: %+v", encode)
	}
	if encode.Dur < 1000 { // µs
		t.Fatalf("span duration %v µs, slept 2ms", encode.Dur)
	}
	if encode.Args["rows"] != 100 {
		t.Fatalf("args lost: %+v", encode.Args)
	}
}

// TestTracerJSONValid: the emitted document must parse as the Chrome
// trace-event object format with thread metadata first.
func TestTracerJSONValid(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(1, "ferret.sender")
	tr.Span("extend", "extend", 1).EndArgs(nil)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want metadata + span", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != "ferret.sender" {
		t.Fatalf("metadata event malformed: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "extend" || doc.TraceEvents[1].Ph != "X" {
		t.Fatalf("span event malformed: %+v", doc.TraceEvents[1])
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must be disabled")
	}
	sp := tr.Span("x", "y", 0)
	if sp.Live() {
		t.Fatal("nil tracer span must be inert")
	}
	sp.EndArgs(nil)
	sp.EndArgs(map[string]any{"a": 1})
	tr.NameThread(1, "x")
	if tr.Events() != nil {
		t.Fatal("nil tracer events must be nil")
	}
	if err := tr.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrent exercises concurrent span recording from
// worker goroutines (the per-worker expand/encode spans do exactly
// this).
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("work", "test", w).EndArgs(nil)
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Events()); got != 800 {
		t.Fatalf("got %d events, want 800", got)
	}
}
