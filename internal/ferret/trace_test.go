package ferret

import (
	"bytes"
	"encoding/json"
	"testing"

	"ironman/internal/block"
	"ironman/internal/obs"
	"ironman/internal/transport"
)

// runExtendsTraced is runExtends with a live tracer attached — the
// instrumented twin of the determinism reference runs.
func runExtendsTraced(t *testing.T, params Params, workers, iters int, tr *obs.Tracer) extendRun {
	t.Helper()
	connS, connR := transport.Pipe()
	defer connS.Close()
	defer connR.Close()
	recS := &recordingConn{Conn: connS}
	recR := &recordingConn{Conn: connR}
	delta := block.New(11, 22)
	opts := Options{Workers: workers, Seed: determinismSeed, Trace: tr}
	s, r, err := DealPools(recS, recR, delta, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	var run extendRun
	for i := 0; i < iters; i++ {
		z, out, err := extendLockstep(s, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(delta, z, out); err != nil {
			t.Fatalf("traced workers=%d iteration %d: %v", workers, i, err)
		}
		run.z = append(run.z, z)
		run.bits = append(run.bits, out.Bits)
		run.blocks = append(run.blocks, out.Blocks)
	}
	run.wireS = recS.log.Bytes()
	run.wireR = recR.log.Bytes()
	return run
}

// TestExtendTraceTranscriptInvariant: attaching a tracer must not
// change a single wire byte or output block relative to the untraced
// run — tracing observes, it never participates.
func TestExtendTraceTranscriptInvariant(t *testing.T) {
	params := TestParams(600, 32, 128, 8)
	ref := runExtends(t, params, 1, 3)
	for _, workers := range []int{1, 8} {
		tr := obs.NewTracer()
		got := runExtendsTraced(t, params, workers, 3, tr)
		compareRuns(t, ref, got, workers)
		if len(tr.Events()) == 0 {
			t.Fatalf("workers=%d: tracer attached but no spans recorded", workers)
		}
	}
}

// mainTIDPhases sums the durations of the sequential phase spans on one
// endpoint lane and returns them keyed by name, plus the enclosing
// "extend" spans' total duration.
func mainTIDPhases(events []obs.TraceEvent, tid int) (phases map[string]float64, extendDur float64) {
	phases = make(map[string]float64)
	for _, e := range events {
		if e.Ph != "X" || e.Tid != tid {
			continue
		}
		if e.Name == "extend" {
			extendDur += e.Dur
			continue
		}
		phases[e.Name] += e.Dur
	}
	return phases, extendDur
}

// TestExtendTracePhaseCoverage pins the span taxonomy acceptance bar:
// every documented phase shows up on its endpoint's lane, and the
// sequential phase spans account for (nearly) the whole enclosing
// "extend" span — the trace explains where the iteration's wall time
// went rather than leaving gaps.
func TestExtendTracePhaseCoverage(t *testing.T) {
	params := TestParams(6000, 64, 256, 16)
	tr := obs.NewTracer()
	runExtendsTraced(t, params, 4, 2, tr)

	events := tr.Events()
	wantPhases := map[int][]string{
		SenderTID:   {"spcot.expand", "spcot.flights", "lpn.encode"},
		ReceiverTID: {"spcot.flights", "spcot.reconstruct", "lpn.encode", "lpn.noise"},
	}
	for tid, names := range wantPhases {
		phases, extendDur := mainTIDPhases(events, tid)
		if extendDur <= 0 {
			t.Fatalf("tid %d: no enclosing extend span", tid)
		}
		var covered float64
		for _, name := range names {
			d, ok := phases[name]
			if !ok {
				t.Errorf("tid %d: phase span %q missing (have %v)", tid, name, phases)
				continue
			}
			covered += d
		}
		// The phases must explain the bulk of the iteration. The slack
		// covers the genuinely un-spanned work between phases (drawing
		// seeds, pool Take, pool rebuild) plus timer granularity.
		if covered < 0.85*extendDur {
			t.Errorf("tid %d: phase spans cover %.0fµs of %.0fµs extend (< 85%%)", tid, covered, extendDur)
		}
		if covered > extendDur*1.01 {
			t.Errorf("tid %d: phase spans overlap: %.0fµs inside %.0fµs extend", tid, covered, extendDur)
		}
	}

	// Worker lanes: the sharded phases must have recorded per-worker
	// spans above each endpoint lane.
	workerSpans := 0
	for _, e := range events {
		if e.Cat == "extend.worker" {
			workerSpans++
			if e.Tid <= SenderTID || e.Tid == ReceiverTID {
				t.Fatalf("worker span on endpoint lane: %+v", e)
			}
		}
	}
	if workerSpans == 0 {
		t.Fatal("no per-worker spans recorded")
	}

	// The document must serialize as valid Chrome trace-event JSON with
	// both endpoint lanes named.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	named := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if n, ok := e.Args["name"].(string); ok {
				named[n] = true
			}
		}
	}
	if !named["ferret.sender"] || !named["ferret.receiver"] {
		t.Fatalf("endpoint lanes unnamed: %v", named)
	}
}
