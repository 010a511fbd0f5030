package nmp

import "testing"

// TestFigure8aDepthFirstBubbles reproduces Figure 8(a): a single
// two-level binary tree on an 8-stage pipeline leaves 7 bubbles between
// the root expansion and its children's expansions.
func TestFigure8aDepthFirstBubbles(t *testing.T) {
	cfg := PipelineConfig{Arities: []int{2, 2}, Trees: 1}
	st := SimulateSchedule(cfg, DepthFirst)
	if st.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", st.Ops)
	}
	if st.Bubbles != 7 {
		t.Fatalf("Bubbles = %d, want 7", st.Bubbles)
	}
}

// TestFigure8bHybridBubbles reproduces Figure 8(b): four two-level
// binary trees under the hybrid schedule leave only 4 bubbles (the gap
// between issuing the 4 roots and the first root completing).
func TestFigure8bHybridBubbles(t *testing.T) {
	cfg := PipelineConfig{Arities: []int{2, 2}, Trees: 4}
	st := SimulateSchedule(cfg, Hybrid)
	if st.Ops != 12 {
		t.Fatalf("Ops = %d, want 12", st.Ops)
	}
	if st.Bubbles != 4 {
		t.Fatalf("Bubbles = %d, want 4", st.Bubbles)
	}
}

// TestHybridFullUtilizationWithEnoughTrees: with >= pipelineStages
// trees the hybrid schedule reaches 100% pipeline utilization (§4.3).
func TestHybridFullUtilizationWithEnoughTrees(t *testing.T) {
	cfg := PipelineConfig{Arities: []int{4, 4, 4}, Trees: 8}
	st := SimulateSchedule(cfg, Hybrid)
	if st.Bubbles != 0 {
		t.Fatalf("Bubbles = %d, want 0", st.Bubbles)
	}
	if st.Utilization != 1.0 {
		t.Fatalf("Utilization = %f, want 1.0", st.Utilization)
	}
}

func TestScheduleOrdering(t *testing.T) {
	// Depth-first must beat breadth-first on buffer, lose on bubbles for
	// a deep single tree.
	cfg := PipelineConfig{Arities: []int{2, 2, 2, 2, 2, 2, 2, 2}, Trees: 1}
	df := SimulateSchedule(cfg, DepthFirst)
	bf := SimulateSchedule(cfg, BreadthFirst)
	if df.PeakBuffer >= bf.PeakBuffer {
		t.Fatalf("DFS buffer (%d) should be below BFS buffer (%d)", df.PeakBuffer, bf.PeakBuffer)
	}
	if bf.Bubbles >= df.Bubbles {
		t.Fatalf("BFS bubbles (%d) should be below DFS bubbles (%d)", bf.Bubbles, df.Bubbles)
	}
}

func TestHybridBuffersBelowBFS(t *testing.T) {
	// For a batch of trees, hybrid utilization must be >= breadth-first
	// per-tree-sequential utilization, with far fewer bubbles than DFS.
	cfg := PipelineConfig{Arities: []int{4, 4, 4, 4}, Trees: 16}
	hy := SimulateSchedule(cfg, Hybrid)
	df := SimulateSchedule(cfg, DepthFirst)
	if hy.Bubbles >= df.Bubbles {
		t.Fatalf("hybrid bubbles (%d) should be below DFS bubbles (%d)", hy.Bubbles, df.Bubbles)
	}
	if hy.Utilization < 0.99 {
		t.Fatalf("hybrid utilization = %f, want ~1", hy.Utilization)
	}
}

func TestOpsCountInvariant(t *testing.T) {
	// All schedules perform exactly the same number of expansions.
	cfg := PipelineConfig{Arities: []int{4, 4, 2}, Trees: 3}
	want := 3 * (1 + 4 + 16)
	for _, s := range []Schedule{DepthFirst, BreadthFirst, Hybrid} {
		st := SimulateSchedule(cfg, s)
		if st.Ops != want {
			t.Fatalf("%v: Ops = %d, want %d", s, st.Ops, want)
		}
	}
}

func TestScheduleString(t *testing.T) {
	if DepthFirst.String() != "depth-first" || Hybrid.String() != "hybrid" {
		t.Fatal("Schedule.String broken")
	}
	if Schedule(42).String() != "Schedule(42)" {
		t.Fatal("unknown Schedule.String broken")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateSchedule(PipelineConfig{Arities: []int{2}, Trees: 0}, Hybrid)
}
