package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile is the nearest-rank percentile (p in per mille, so 990 is
// p99) of xs; 0 for an empty slice.
func percentile(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (len(s)*perMille + 999) / 1000 // ceil
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder is the set of tail percentiles a report may quote, in per
// mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a quoted percentile.
const minBeyond = 10

// tail picks the highest ladder percentile that still has at least
// minBeyond samples beyond it — quoting p99 of 50 samples would be
// quoting one sample. ok is false when even p75 lacks them.
func tail(xs []float64) (perMille int, value float64, ok bool) {
	for _, p := range tailLadder {
		if len(xs)*(1000-p) >= minBeyond*1000 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// relDiff is |a-b| as a share of the smaller magnitude (0 when both
// are 0), the quantity -check-repeat holds against a metric's bound.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
