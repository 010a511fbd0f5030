package nmp

import "fmt"

// GGM-tree expansion scheduling on the PU's pipelined ChaCha8 core
// (Figure 8 of the paper). The core accepts one expansion per cycle and
// delivers the result pipelineStages cycles later; an expansion can
// only be issued once its parent's expansion has completed. The three
// schedules differ in the order expansions are issued:
//
//   - DepthFirst: classic DFS, minimal O(m·depth) buffer but the pipeline
//     drains whenever the next op waits on its own parent.
//   - BreadthFirst: level order, fills the pipeline once a level is wide
//     enough but needs O(ℓ) buffering and delays leaf readiness.
//   - Hybrid: the paper's strategy — breadth-first within a level plus
//     inter-tree parallelism, so bubbles are filled with other trees'
//     ops while keeping per-tree buffering shallow.

// Schedule selects the expansion order.
type Schedule int

const (
	DepthFirst Schedule = iota
	BreadthFirst
	Hybrid
)

func (s Schedule) String() string {
	switch s {
	case DepthFirst:
		return "depth-first"
	case BreadthFirst:
		return "breadth-first"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// PipelineConfig describes the workload of a schedule run.
type PipelineConfig struct {
	Arities []int // per-level arities of each tree
	Trees   int   // number of trees expanded in the batch
}

// PipelineStats reports the outcome of a schedule simulation.
type PipelineStats struct {
	Ops         int     // expansions issued
	Cycles      int     // total cycles until the last result is produced
	Bubbles     int     // idle issue slots before the last issue
	Utilization float64 // Ops / issue window
	PeakBuffer  int     // max simultaneously-live node blocks
}

// op is one PRG expansion: (tree, level, node index within level).
type op struct {
	tree, level, node int
}

// SimulateSchedule runs an in-order issue simulation of the given
// schedule and returns its pipeline statistics. The model: one op may
// issue per cycle; an op's parent must have completed (issue +
// pipelineStages cycles) before the op can issue; ops issue strictly in schedule
// order, so a stalled op blocks everything behind it (in-order issue,
// matching a hardware FIFO in front of the core).
func SimulateSchedule(cfg PipelineConfig, s Schedule) PipelineStats {
	if cfg.Trees < 1 || len(cfg.Arities) == 0 {
		panic("nmp: bad pipeline config")
	}
	order := scheduleOrder(cfg, s)

	// Completion time of each op, keyed by op. Roots are available at
	// time 0 (seeds arrive from the host).
	done := make(map[op]int, len(order))
	now := 0
	lastDone := 0
	firstIssue := -1
	var lastIssue int
	for _, o := range order {
		ready := 0
		if o.level > 0 {
			// o expands a node at level o.level whose block was produced
			// by its parent's expansion at level o.level-1.
			ready = done[op{o.tree, o.level - 1, o.node / cfg.Arities[o.level-1]}]
		}
		if now < ready {
			now = ready
		}
		if firstIssue < 0 {
			firstIssue = now
		}
		done[op{o.tree, o.level, o.node}] = now + pipelineStages
		if now+pipelineStages > lastDone {
			lastDone = now + pipelineStages
		}
		lastIssue = now
		now++
	}
	ops := len(order)
	window := lastIssue - firstIssue + 1
	stats := PipelineStats{
		Ops:         ops,
		Cycles:      lastDone,
		Bubbles:     window - ops,
		Utilization: float64(ops) / float64(window),
		PeakBuffer:  peakBuffer(cfg, order),
	}
	return stats
}

// scheduleOrder produces the issue order of expansions. An op at level l
// expands node (l, node) producing that node's children; level 0 expands
// the root.
func scheduleOrder(cfg PipelineConfig, s Schedule) []op {
	var order []op
	switch s {
	case DepthFirst:
		for t := 0; t < cfg.Trees; t++ {
			order = append(order, dfsOrder(cfg.Arities, t, 0, 0)...)
		}
	case BreadthFirst:
		for t := 0; t < cfg.Trees; t++ {
			width := 1
			for l := range cfg.Arities {
				for n := 0; n < width; n++ {
					order = append(order, op{t, l, n})
				}
				width *= cfg.Arities[l]
			}
		}
	case Hybrid:
		// Inter-tree parallelism: at each level, round-robin the ops of
		// all trees, so another tree's ops fill the bubbles left by data
		// dependencies within one tree (Figure 8(b)).
		width := 1
		for l := range cfg.Arities {
			for n := 0; n < width; n++ {
				for t := 0; t < cfg.Trees; t++ {
					order = append(order, op{t, l, n})
				}
			}
			width *= cfg.Arities[l]
		}
	default:
		panic("nmp: unknown schedule")
	}
	return order
}

func dfsOrder(arities []int, tree, level, node int) []op {
	order := []op{{tree, level, node}}
	if level+1 < len(arities) {
		a := arities[level]
		for c := 0; c < a; c++ {
			order = append(order, dfsOrder(arities, tree, level+1, node*a+c)...)
		}
	}
	return order
}

// peakBuffer computes the maximum number of live node blocks under the
// given issue order: a node becomes live when produced and dies when its
// own expansion issues (internal nodes) or immediately streams out
// (leaves, which pair with LPN output in PCG OTE and need no buffering
// beyond the level itself in this model).
func peakBuffer(cfg PipelineConfig, order []op) int {
	live := 0
	peak := 0
	// Each expansion consumes one parent block and produces arity
	// children; leaves stream out so only internal children count.
	lastLevel := len(cfg.Arities) - 1
	for _, o := range order {
		if o.level > 0 {
			live-- // parent consumed
		}
		if o.level < lastLevel {
			live += cfg.Arities[o.level]
		}
		if live > peak {
			peak = live
		}
	}
	return peak
}
