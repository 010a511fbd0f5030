// Index sorting for the memory-side cache (§5.3, Figures 5 and 11).
//
// LPN's accesses into the length-k input vector are uniformly random, so
// a small cache in front of DRAM thrashes. Because the matrix A is fixed
// across all protocol executions, Ironman reorders it once at compile
// time:
//
//   - Column Swapping relabels the input positions in first-use order,
//     turning scattered indices into mostly-ascending ones so consecutive
//     accesses share cache lines (spatial locality);
//   - Row Look-ahead reorders row processing within a window, greedily
//     picking the pending row with the most indices already resident in a
//     simulated copy of the memory-side cache (temporal locality). The
//     Rowidx array remembers each row's true output slot.
//
// Both transforms preserve the encoded output exactly: column swapping
// is compensated by permuting the input vector (legitimate under the
// LPN assumption — the input is uniformly random either way, and both
// parties permute consistently), and row look-ahead only changes the
// order in which independent output rows are produced. The software
// encoders keep the natural layout; the view is the address stream the
// near-memory model in internal/sim/nmp replays.
package lpn

import "runtime"

// Sorted is a compile-time-sorted view of a Code.
type Sorted struct {
	// ColPerm maps original column -> permuted position. The permuted
	// input vector is rPerm[ColPerm[j]] = r[j].
	ColPerm []uint32
	// idx holds permuted column indices in processing order:
	// processing step i uses idx[i*D:(i+1)*D].
	idx []uint32
	// Rowidx[i] is the true output row of processing step i.
	Rowidx []uint32
}

// SortOptions tunes the sorting pass.
type SortOptions struct {
	// ColumnSwap enables first-use relabeling of columns.
	ColumnSwap bool
	// LookaheadWindow is the number of pending rows the row scheduler
	// examines; 0 disables row look-ahead (rows stay in natural order).
	LookaheadWindow int
	// CacheLines and LineWords describe the simulated memory-side cache
	// used to score pending rows: capacity in lines and 16-byte input
	// elements per line (a 64 B line holds 4 elements). Only used when
	// LookaheadWindow > 0.
	CacheLines int
	LineWords  int
}

// Sort produces the sorted view. The pass is deterministic, so the two
// protocol parties derive identical views from the shared code.
func (c *Code) Sort(opts SortOptions) *Sorted {
	s := &Sorted{}

	// Column swapping: relabel columns in first-use order.
	s.ColPerm = make([]uint32, c.K)
	if opts.ColumnSwap {
		const unset = ^uint32(0)
		for j := range s.ColPerm {
			s.ColPerm[j] = unset
		}
		next := uint32(0)
		for _, j := range c.idx {
			if s.ColPerm[j] == unset {
				s.ColPerm[j] = next
				next++
			}
		}
		// Columns never referenced keep stable positions at the end.
		for j := range s.ColPerm {
			if s.ColPerm[j] == unset {
				s.ColPerm[j] = next
				next++
			}
		}
	} else {
		for j := range s.ColPerm {
			s.ColPerm[j] = uint32(j)
		}
	}

	// Apply the relabeling to a private copy of the index matrix.
	permIdx := make([]uint32, len(c.idx))
	for i, j := range c.idx {
		permIdx[i] = s.ColPerm[j]
	}
	runtime.KeepAlive(c) // the last read of c.idx (see Code.idx)

	// Row look-ahead: greedy cache-aware ordering.
	s.Rowidx = make([]uint32, c.N)
	if opts.LookaheadWindow <= 1 {
		for i := range s.Rowidx {
			s.Rowidx[i] = uint32(i)
		}
	} else {
		s.Rowidx = lookaheadOrder(permIdx, c.N, c.K, c.D, opts)
	}

	// Materialize processing-order indices.
	s.idx = make([]uint32, len(c.idx))
	for i, row := range s.Rowidx {
		copy(s.idx[i*c.D:(i+1)*c.D], permIdx[int(row)*c.D:(int(row)+1)*c.D])
	}
	return s
}

// lookaheadOrder simulates the memory-side cache and, at every step,
// issues the pending row (within the window) whose indices hit the most
// resident lines. Every permuted column is below k.
func lookaheadOrder(permIdx []uint32, n, k, d int, opts SortOptions) []uint32 {
	order := make([]uint32, 0, n)
	lw := uint32(opts.LineWords)
	if lw == 0 {
		lw = 4
	}
	cache := newClockCache(opts.CacheLines, (k+int(lw)-1)/int(lw))
	window := opts.LookaheadWindow

	// pending rows kept as a sliding window over natural order.
	nextRow := 0
	pend := make([]uint32, 0, window)
	for len(pend) < window && nextRow < n {
		pend = append(pend, uint32(nextRow))
		nextRow++
	}
	for len(pend) > 0 {
		best, bestScore := 0, -1
		for pi, row := range pend {
			score := 0
			for _, col := range permIdx[int(row)*d : (int(row)+1)*d] {
				if cache.contains(col / lw) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = pi, score
			}
		}
		row := pend[best]
		order = append(order, row)
		for _, col := range permIdx[int(row)*d : (int(row)+1)*d] {
			cache.touch(col / lw)
		}
		// Refill the window.
		pend[best] = pend[len(pend)-1]
		pend = pend[:len(pend)-1]
		if nextRow < n {
			pend = append(pend, uint32(nextRow))
			nextRow++
		}
	}
	return order
}

// clockCache is a cheap fully-associative line set with CLOCK eviction,
// good enough for scheduling decisions (the precise simulator lives in
// internal/sim/cache). Residency is a flat flag per line of the input
// vector, which a lookup reads without hashing.
type clockCache struct {
	cap   int
	lines []bool // lines[l]: line l is resident
	ring  []uint32
	hand  int
}

// newClockCache holds capacity lines out of numLines, the line count of
// the input vector.
func newClockCache(capacity, numLines int) *clockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &clockCache{cap: capacity, lines: make([]bool, numLines)}
}

func (c *clockCache) contains(line uint32) bool { return c.lines[line] }

func (c *clockCache) touch(line uint32) {
	if c.lines[line] {
		return
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, line)
		c.lines[line] = true
		return
	}
	c.lines[c.ring[c.hand]] = false
	c.ring[c.hand] = line
	c.lines[line] = true
	c.hand = (c.hand + 1) % c.cap
}

// AccessTrace invokes f for every permuted input access in processing
// order — the exact address stream the Rank-NMP module issues.
func (s *Sorted) AccessTrace(f func(col uint32)) {
	for _, j := range s.idx {
		f(j)
	}
}
