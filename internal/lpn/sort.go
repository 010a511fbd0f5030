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
// order in which independent output rows are produced.
package lpn

import "ironman/internal/block"

// Sorted is a compile-time-sorted view of a Code.
type Sorted struct {
	code *Code
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

// DefaultSort is the configuration the Ironman design point uses: both
// transforms on, a 16-row window, scored against a 256 KB cache with
// 64-byte lines.
//
//ironman:allow(deadexport) the sorted encoder awaits wiring into ferret's Extend; sort_test holds it to the unsorted output
func DefaultSort() SortOptions {
	return SortOptions{
		ColumnSwap:      true,
		LookaheadWindow: 16,
		CacheLines:      256 * 1024 / 64,
		LineWords:       4,
	}
}

// Sort produces the sorted view. The pass is deterministic, so the two
// protocol parties derive identical views from the shared code.
func (c *Code) Sort(opts SortOptions) *Sorted {
	s := &Sorted{code: c}

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

	// Row look-ahead: greedy cache-aware ordering.
	s.Rowidx = make([]uint32, c.N)
	if opts.LookaheadWindow <= 1 {
		for i := range s.Rowidx {
			s.Rowidx[i] = uint32(i)
		}
	} else {
		s.Rowidx = lookaheadOrder(permIdx, c.N, c.D, opts)
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
// resident lines.
func lookaheadOrder(permIdx []uint32, n, d int, opts SortOptions) []uint32 {
	order := make([]uint32, 0, n)
	cache := newClockCache(opts.CacheLines)
	lw := uint32(opts.LineWords)
	if lw == 0 {
		lw = 4
	}
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
// internal/sim/cache).
type clockCache struct {
	cap   int
	lines map[uint32]bool
	ring  []uint32
	hand  int
}

func newClockCache(capacity int) *clockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &clockCache{cap: capacity, lines: make(map[uint32]bool, capacity)}
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
	victim := c.ring[c.hand]
	delete(c.lines, victim)
	c.ring[c.hand] = line
	c.lines[line] = true
	c.hand = (c.hand + 1) % c.cap
}

// PermuteInput produces the column-swapped copy of an input vector:
// out[ColPerm[j]] = in[j]. Both parties apply this to their LPN inputs
// before running the sorted encoder.
//
//ironman:allow(deadexport) the sorted encoder awaits wiring into ferret's Extend; sort_test holds it to the unsorted output
func (s *Sorted) PermuteInput(in []block.Block) []block.Block {
	out := make([]block.Block, len(in))
	for j, v := range in {
		out[s.ColPerm[j]] = v
	}
	return out
}

// PermuteInputBits is PermuteInput for the receiver's bit vector e.
//
//ironman:allow(deadexport) the sorted encoder awaits wiring into ferret's Extend; sort_test holds it to the unsorted output
func (s *Sorted) PermuteInputBits(in []bool) []bool {
	out := make([]bool, len(in))
	for j, v := range in {
		out[s.ColPerm[j]] = v
	}
	return out
}

// EncodeBlocks runs the encoder over the sorted layout: rows are
// processed in look-ahead order against the permuted input, and Rowidx
// routes each result to its true output slot. The result is bit-for-bit
// identical to Code.EncodeBlocksParallel on the unsorted layout.
//
//ironman:allow(deadexport) the sorted encoder awaits wiring into ferret's Extend; sort_test holds it to the unsorted output
func (s *Sorted) EncodeBlocks(out, rPerm, w []block.Block) {
	c := s.code
	if len(out) != c.N || len(rPerm) != c.K {
		panic("lpn: Sorted.EncodeBlocks dimension mismatch")
	}
	for i := 0; i < c.N; i++ {
		var acc block.Block
		for _, j := range s.idx[i*c.D : (i+1)*c.D] {
			acc.Lo ^= rPerm[j].Lo
			acc.Hi ^= rPerm[j].Hi
		}
		row := s.Rowidx[i]
		if w != nil {
			acc = acc.Xor(w[row])
		}
		out[row] = acc
	}
}

// AccessTrace invokes f for every permuted input access in processing
// order — the exact address stream the Rank-NMP module issues.
func (s *Sorted) AccessTrace(f func(col uint32)) {
	for _, j := range s.idx {
		f(j)
	}
}
