// Package mpcot builds t-point correlated OT from t single-point
// executions using the regular-index construction of Ferret: the output
// range [0, n) is split into t consecutive buckets, each covered by one
// GGM tree of ℓ leaves, and the receiver punctures one secret position
// per bucket. The sparse vector u across all buckets is the "noise" the
// LPN encoding compresses (Figure 3(a), step 1).
package mpcot

import (
	"fmt"
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
	// "spcot.flights" wire phases on thread TID. Tracing observes local
	// compute only — the wire transcript is untouched (guarded by the
	// ferret determinism tests).
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

// AlphasFrom draws one uniformly random punctured position per bucket
// from s: within the part of the bucket inside [0, N), or within the
// whole bucket for one entirely beyond N (its tree still runs for
// protocol symmetry). The positions are the receiver's secret noise: s
// must be its private stream (aesprg.NewLocal), fresh unless a run is
// seeded on purpose.
func (c Config) AlphasFrom(s *aesprg.Stream) []int {
	alphas := make([]int, c.T)
	for i := range alphas {
		lo, hi := c.bucketSpan(i)
		if hi <= lo {
			lo, hi = i*c.Leaves, (i+1)*c.Leaves
		}
		alphas[i] = lo + int(s.Uint32n(uint32(hi-lo)))
	}
	return alphas
}

// SendSeeded runs the sender side: t SPCOT executions whose leaves are
// concatenated and truncated to n blocks (the vector w). The puncturing
// of all t trees is one exchange: the receiver's correction frame in,
// then every tree expanded straight into its bucket of w and sealed
// (concurrently across up to `workers` goroutines — the trees are
// independent, which is what makes the paper's 4-ary construction
// embarrassingly parallel across buckets), then one reply frame out.
// Each tree's section sits at a fixed offset and each COT's tweak is
// fixed by its tree and level, so the transcript is byte-identical for
// every worker count. seeds supplies one GGM root per bucket, drawn
// from the sender's private stream (aesprg.NewLocal).
func SendSeeded(conn transport.Conn, pool *cot.SenderPool, h *aesprg.Hash, p prg.PRG, cfg Config, seeds []block.Block, workers int) ([]block.Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) != cfg.T {
		return nil, fmt.Errorf("mpcot: need %d seeds, got %d", cfg.T, len(seeds))
	}
	fl := cfg.Trace.Span("spcot.flights", "extend", cfg.TID)
	x, err := spcot.OpenSender(conn, pool, h, p, cfg.Leaves, cfg.T)
	fl.EndArgs(nil)
	if err != nil {
		return nil, fmt.Errorf("mpcot: %w", err)
	}
	// Local and parallel: buckets write disjoint ranges of w and of the
	// reply.
	expand := cfg.Trace.Span("spcot.expand", "extend", cfg.TID)
	w := make([]block.Block, cfg.N)
	parallel.ShardIndexed(workers, cfg.T, func(shard, lo, hi int) {
		sp := cfg.Trace.Span("spcot.expand", "extend.worker", cfg.TID+1+shard)
		sc := x.Scratch()
		for i := lo; i < hi; i++ {
			blo, bhi := cfg.bucketSpan(i)
			x.Seal(i, seeds[i], w[blo:bhi], sc)
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{"trees": hi - lo})
		}
	})
	if expand.Live() {
		expand.EndArgs(map[string]any{"trees": cfg.T, "leaves": cfg.Leaves})
	}
	fl = cfg.Trace.Span("spcot.flights", "extend", cfg.TID)
	err = x.Reply(conn)
	fl.EndArgs(nil)
	if err != nil {
		return nil, fmt.Errorf("mpcot: %w", err)
	}
	return w, nil
}

// ReceiveWorkers runs the receiver side with one punctured position per
// bucket. It returns v (length n); together with the one-hot positions
// alphas the outputs satisfy w = v ⊕ u·Δ with u = Σ e_{alpha_i}.
// Alphas beyond N are allowed (their tree output is discarded) but each
// alphas[i] must fall inside bucket i. The one exchange (every tree's
// corrections out, the sender's reply in) comes first; then the t
// punctured trees are reconstructed straight into their buckets of v,
// concurrently across up to `workers` goroutines. The wire transcript
// is byte-identical for every worker count.
func ReceiveWorkers(conn transport.Conn, pool *cot.ReceiverPool, h *aesprg.Hash, p prg.PRG, cfg Config, alphas []int, workers int) ([]block.Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(alphas) != cfg.T {
		return nil, fmt.Errorf("mpcot: need %d alphas, got %d", cfg.T, len(alphas))
	}
	// Bucket-local positions: spcot rejects one outside its bucket
	// before any traffic, so a bad input fails cleanly rather than
	// desynchronizing the two parties.
	local := make([]int, cfg.T)
	for i, a := range alphas {
		local[i] = a - i*cfg.Leaves
	}
	fl := cfg.Trace.Span("spcot.flights", "extend", cfg.TID)
	x, err := spcot.OpenReceiver(conn, pool, h, p, cfg.Leaves, local)
	if fl.Live() {
		fl.EndArgs(map[string]any{"trees": cfg.T})
	}
	if err != nil {
		return nil, fmt.Errorf("mpcot: %w", err)
	}
	// Local and parallel: buckets write disjoint ranges of v.
	reco := cfg.Trace.Span("spcot.reconstruct", "extend", cfg.TID)
	v := make([]block.Block, cfg.N)
	parallel.ShardIndexed(workers, cfg.T, func(shard, lo, hi int) {
		sp := cfg.Trace.Span("spcot.reconstruct", "extend.worker", cfg.TID+1+shard)
		sc := x.Scratch()
		for i := lo; i < hi; i++ {
			blo, bhi := cfg.bucketSpan(i)
			x.Open(i, v[blo:bhi], sc)
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
