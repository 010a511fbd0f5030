// Package mpcot builds t-point correlated OT from t single-point
// executions using the regular-index construction of Ferret: the output
// range [0, n) is split into t consecutive buckets, each covered by one
// GGM tree of ℓ leaves, and the receiver punctures one secret position
// per bucket. The sparse vector u across all buckets is the "noise" the
// LPN encoding compresses (Figure 3(a), step 1).
package mpcot

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/obs"
	"ironman/internal/parallel"
	"ironman/internal/prg"
	"ironman/internal/spcot"
	"ironman/internal/transport"
)

// Config describes one MPCOT execution.
type Config struct {
	N      int // output length
	Leaves int // GGM tree size ℓ (power of two)
	T      int // number of trees / noise positions

	// Trace, when non-nil, records phase spans: "spcot.expand" /
	// "spcot.reconstruct" per worker (threads TID+1+shard) and the
	// sequential "spcot.flights" wire phase on thread TID. Tracing
	// observes local compute only — the wire transcript is untouched
	// (guarded by the ferret determinism tests).
	Trace *obs.Tracer
	// TID is the trace thread id of the endpoint driving this
	// execution (its workers get TID+1+shard).
	TID int
}

// Validate checks the basic shape of the configuration: ℓ must be a
// power of two >= 2 (the GGM tree shape). t·ℓ may be smaller than n
// (two of the paper's Table 4 rows have this): positions beyond t·ℓ
// then carry no noise — u, w and v are zero there, which only shortens
// the effective noise support, never breaks the output correlation.
func (c Config) Validate() error {
	if c.N < 1 || c.Leaves < 2 || c.T < 1 || bits.OnesCount(uint(c.Leaves)) != 1 {
		return fmt.Errorf("mpcot: bad config %+v", c)
	}
	return nil
}

// Covered returns how many of the n output positions can carry noise.
func (c Config) Covered() int {
	if c.T*c.Leaves < c.N {
		return c.T * c.Leaves
	}
	return c.N
}

// COTBudget is the number of COT correlations one execution consumes.
func (c Config) COTBudget() int { return c.T * spcot.COTBudget(c.Leaves) }

// bucketSpan returns the half-open output range [lo, hi) of bucket i,
// clamped to [0, N): buckets at or beyond N come back empty (their
// trees still run for protocol symmetry but contribute no output).
func (c Config) bucketSpan(i int) (lo, hi int) {
	lo = i * c.Leaves
	hi = lo + c.Leaves
	if hi > c.N {
		hi = c.N
	}
	if lo > c.N {
		lo = c.N
	}
	return lo, hi
}

// noiseSpan is the half-open range a bucket's punctured position is
// drawn from: the part of the bucket inside [0, N), or — for a bucket
// entirely beyond N, whose tree still runs for protocol symmetry — the
// whole bucket. Shared by RandomAlphas and AlphasFrom so the two draw
// paths can never drift apart in distribution.
func (c Config) noiseSpan(i int) (lo, hi int) {
	lo, hi = c.bucketSpan(i)
	if hi <= lo {
		lo, hi = i*c.Leaves, i*c.Leaves+c.Leaves
	}
	return lo, hi
}

// RandomAlphas draws one uniformly random punctured position per bucket
// (within the part of the bucket that lies inside [0, N)).
func (c Config) RandomAlphas() ([]int, error) {
	alphas := make([]int, c.T)
	for i := range alphas {
		lo, hi := c.noiseSpan(i)
		//ironman:allow(randsrc) the receiver's punctured positions are its secret noise and must be fresh system entropy; the seeded variant is AlphasFrom
		v, err := rand.Int(rand.Reader, big.NewInt(int64(hi-lo)))
		if err != nil {
			return nil, err
		}
		alphas[i] = lo + int(v.Int64())
	}
	return alphas, nil
}

// AlphasFrom is RandomAlphas with the randomness drawn from a
// deterministic stream instead of crypto/rand — the determinism hook
// behind ferret.Options.Seed (tests and benchmarks only; a punctured
// position derived from a known seed is not secret).
func (c Config) AlphasFrom(s *aesprg.Stream) []int {
	alphas := make([]int, c.T)
	for i := range alphas {
		lo, hi := c.noiseSpan(i)
		alphas[i] = lo + int(s.Uint32n(uint32(hi-lo)))
	}
	return alphas
}

// RandomSeeds draws one fresh GGM root seed per bucket from
// crypto/rand.
func (c Config) RandomSeeds() ([]block.Block, error) {
	buf := make([]byte, c.T*block.Size)
	//ironman:allow(randsrc) fresh GGM root seeds per extend are protocol randomness by design; deterministic runs pass explicit seeds to SendSeeded and draw alphas with AlphasFrom
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	return block.SliceFromBytes(buf), nil
}

// SendSeeded runs the sender side: t SPCOT executions whose leaves are
// concatenated and truncated to n blocks (the vector w). Phase one
// expands all t GGM trees locally (concurrently across up to `workers`
// goroutines — the trees are independent, which is what makes the
// paper's 4-ary construction embarrassingly parallel across buckets);
// phase two runs the puncturing flights strictly sequentially in
// bucket order, so the wire transcript is byte-identical for every
// worker count. seeds supplies one GGM root per bucket (deterministic
// runs pass a derived stream, others RandomSeeds).
func SendSeeded(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, cfg Config, seeds []block.Block, workers int) ([]block.Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) != cfg.T {
		return nil, fmt.Errorf("mpcot: need %d seeds, got %d", cfg.T, len(seeds))
	}
	// Phase 1 (local, parallel): expand every bucket's tree and place
	// its leaves. Buckets write disjoint ranges of w.
	expand := cfg.Trace.Span("spcot.expand", "extend", cfg.TID)
	w := make([]block.Block, cfg.N)
	trees := make([]*spcot.SenderTree, cfg.T)
	parallel.ShardIndexed(workers, cfg.T, func(shard, lo, hi int) {
		sp := cfg.Trace.Span("spcot.expand", "extend.worker", cfg.TID+1+shard)
		for i := lo; i < hi; i++ {
			trees[i] = spcot.ExpandSender(p, cfg.Leaves, seeds[i])
			blo, bhi := cfg.bucketSpan(i)
			if bhi > blo {
				copy(w[blo:bhi], trees[i].Leaves()[:bhi-blo])
			}
			// The flights need only sums/gadget/xor; holding every tree's
			// leaves until phase 2 finishes would double peak memory.
			trees[i].ReleaseLeaves()
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"trees": hi - lo})
		}
	})
	if expand.Live() {
		expand.EndArgs(map[string]any{"trees": cfg.T, "leaves": cfg.Leaves})
	}
	// Phase 2 (wire, sequential): the puncturing flights consume pool
	// correlations in bucket order — the cursor is part of the
	// transcript, so this phase never reorders.
	flights := cfg.Trace.Span("spcot.flights", "extend", cfg.TID)
	for i := 0; i < cfg.T; i++ {
		if err := trees[i].SendFlights(conn, pool, h); err != nil {
			return nil, fmt.Errorf("mpcot tree %d: %w", i, err)
		}
	}
	if flights.Live() {
		flights.EndArgs(map[string]any{"trees": cfg.T})
	}
	return w, nil
}

// ReceiveWorkers runs the receiver side with one punctured position per
// bucket. It returns v (length n); together with the one-hot positions
// alphas the outputs satisfy w = v ⊕ u·Δ with u = Σ e_{alpha_i}.
// Alphas beyond N are allowed (their tree output is discarded) but each
// alphas[i] must fall inside bucket i. Phase one runs the puncturing
// flights strictly sequentially in bucket order (matching SendSeeded's
// wire phase); phase two reconstructs the t punctured trees locally,
// concurrently across up to `workers` goroutines. The wire transcript
// is byte-identical for every worker count.
func ReceiveWorkers(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, cfg Config, alphas []int, workers int) ([]block.Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(alphas) != cfg.T {
		return nil, fmt.Errorf("mpcot: need %d alphas, got %d", cfg.T, len(alphas))
	}
	// Validate all positions before any traffic, so a bad input fails
	// cleanly rather than desynchronizing the two parties.
	for i, a := range alphas {
		lo := i * cfg.Leaves
		if a < lo || a >= lo+cfg.Leaves {
			return nil, fmt.Errorf("mpcot: alpha %d outside bucket %d", a, i)
		}
	}
	// Phase 1 (wire, sequential).
	fl := cfg.Trace.Span("spcot.flights", "extend", cfg.TID)
	flights := make([]*spcot.ReceiverFlights, cfg.T)
	for i := 0; i < cfg.T; i++ {
		lo := i * cfg.Leaves
		f, err := spcot.ReceiveFlights(conn, pool, h, p, cfg.Leaves, alphas[i]-lo)
		if err != nil {
			return nil, fmt.Errorf("mpcot tree %d: %w", i, err)
		}
		flights[i] = f
	}
	if fl.Live() {
		fl.EndArgs(map[string]any{"trees": cfg.T})
	}
	// Phase 2 (local, parallel): reconstruct every bucket's punctured
	// tree. Buckets write disjoint ranges of v.
	reco := cfg.Trace.Span("spcot.reconstruct", "extend", cfg.TID)
	v := make([]block.Block, cfg.N)
	parallel.ShardIndexed(workers, cfg.T, func(shard, lo, hi int) {
		sp := cfg.Trace.Span("spcot.reconstruct", "extend.worker", cfg.TID+1+shard)
		for i := lo; i < hi; i++ {
			leaves := flights[i].Reconstruct(p)
			blo, bhi := cfg.bucketSpan(i)
			if bhi > blo {
				copy(v[blo:bhi], leaves[:bhi-blo])
			}
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"trees": hi - lo})
		}
	})
	if reco.Live() {
		reco.EndArgs(map[string]any{"trees": cfg.T, "leaves": cfg.Leaves})
	}
	return v, nil
}
