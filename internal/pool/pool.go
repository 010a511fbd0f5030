// Package pool provides asynchronous, double-buffered correlation
// pools: background workers run protocol iterations (ferret.Extend)
// pipelined ahead of demand, so drawing correlations almost never
// blocks on an interactive protocol round trip.
//
// A pool wraps a source function that produces one batch of
// correlations per call. With Config.Depth == 0 the pool is a plain
// synchronous buffer — the drawing goroutine runs the source inline,
// exactly the seed code path. With Depth > 0 a worker goroutine keeps
// up to Depth batches ready, refilling whenever the ready count falls
// below half of that (classic double-buffer hysteresis: dip below low
// water, fill back up to high water).
//
// There is one implementation: a stream (source, refill state, worker)
// feeding one ready buffer (half) per direction it serves. Dealt is the
// general case, a lockstep source feeding a sender half and a receiver
// half; Sender and Receiver are views on a stream's one half — their
// own, when built over a one-sided source by NewSender/NewReceiver, or
// a Dealt's, from SenderHalf/ReceiverHalf. Every draw, on any of them,
// is the same fill-or-await-then-pop step.
//
// Because the source is usually an interactive two-party protocol,
// asynchronous refills put protocol traffic on the pool's conn from a
// background goroutine. The conn must therefore be dedicated to
// correlation generation while a Depth > 0 pool is open; multiplex
// application traffic onto a second conn. A Dealt's source drives both
// endpoints of an in-process pair in lockstep, which is what the otserv
// dispenser builds sessions from.
//
// The ready buffer is compacted as it drains: unlike the seed's
// `buf = buf[n:]` pattern, a consumed prefix never pins the backing
// array once it dominates the buffer.
//
// Refill parallelism lives inside the source, not the pool: a source
// built from a ferret endpoint with Options.Workers > 1 shards each
// Extend's local phases across cores, so one background refill
// goroutine is enough to saturate the host — the pool never runs two
// refills of one stream concurrently (protocol iterations are
// inherently sequential on a conn).
package pool

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ironman/internal/block"
)

// ErrClosed is returned by draws on a closed pool, whether or not it
// still has correlations buffered.
var ErrClosed = errors.New("pool: closed")

// ErrRetained is returned by a Dealt draw that cannot be satisfied
// because the paired half has hit its retention cap: generating more
// would grow the undrawn half without bound. Drain the other half or
// close the pool.
var ErrRetained = errors.New("pool: paired half at retention cap")

// ErrDry is the typed shed for a blocked draw that ran into the pool's
// backpressure bounds: generation is behind demand and either the draw
// waited Config.MaxWait without being satisfied or Config.MaxWaiters
// draws were already queued. The draw consumed nothing; the caller can
// retry, back off, or surface the shed (the otserv dispenser maps it
// to its typed pool-dry protocol status). Never returned when both
// bounds are disabled.
var ErrDry = errors.New("pool: dry")

// compactMin is the consumed-prefix size (in correlations) below which
// compaction is not worth the copy.
const compactMin = 1024

// Config tunes a pool.
type Config struct {
	// Depth is the number of source batches kept generated ahead of
	// demand (the high-water mark, in batches). 0 disables the
	// background worker: draws run the source inline on the calling
	// goroutine, which is the synchronous seed behaviour.
	Depth int
	// MaxWait bounds how long one blocked draw waits for generation
	// before shedding with ErrDry; 0 waits forever. A serving layer
	// sets this so a draw storm degrades into typed rejections instead
	// of an unbounded convoy. Ignored when Depth == 0 (the draw runs
	// the source inline and is bounded by the source itself).
	MaxWait time.Duration
	// MaxWaiters bounds how many draws may be blocked on generation at
	// once; a draw that would become waiter MaxWaiters+1 sheds
	// immediately with ErrDry. 0 disables the bound.
	MaxWaiters int
	// Obs is the instrument set that counts this pool's draws and
	// refills (for a Dealt pool: the sender half's). nil gives the half
	// unregistered instruments, which only Stats reads.
	Obs *Observer
	// ObsReceiver is the receiver half's instrument set of a Dealt
	// pool; ignored by NewSender and NewReceiver.
	ObsReceiver *Observer
}

// Stats are one pool half's lifetime counters, read from its
// Observer. All counts are correlations unless noted.
type Stats struct {
	Generated    uint64        // produced by the source
	Dispensed    uint64        // handed to callers
	Refills      uint64        // source invocations
	Draws        uint64        // draw calls
	BlockedDraws uint64        // draws that had to wait for generation
	BlockedTime  time.Duration // total time draws spent waiting
	Buffered     int           // ready correlations right now
}

// stream is the one correlation stream behind every pool flavour: a
// source producing lockstep batches, one ready buffer per direction it
// serves (both for a Dealt, one for a Sender or Receiver), and the
// refill state. Methods are called with mu held unless noted.
type stream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cfg     Config
	src     DealtRefill
	s, r    *half // sender / receiver direction; nil when the source is one-sided
	batch   int   // observed source batch size; 0 until the first refill
	filling bool
	running bool // the source is running, with mu released
	waiters int  // draws currently blocked on generation
	err     error
	closed  bool
	wg      sync.WaitGroup
}

// newStream builds the stream over its halves and, with cfg.Depth > 0,
// starts the worker prefetching to high water right away.
func newStream(src DealtRefill, cfg Config, s, r *half) *stream {
	st := &stream{cfg: cfg, src: src, s: s, r: r, filling: true}
	st.cond = sync.NewCond(&st.mu)
	if cfg.Depth > 0 {
		st.wg.Add(1)
		go st.runWorker()
	}
	return st
}

// half is one direction's draining ready buffer with its instruments.
type half struct {
	blocks []block.Block
	bits   []bool // choice bits aligned with blocks; nil on a sender half
	head   int
	obs    *Observer
	// demand is the largest unmet draw on this half, 0 when none waits.
	// It drives refills past the water marks, and capBlocked discounts
	// it so correlations a waiting draw will immediately consume don't
	// count as retained.
	demand int
}

// newHalf builds an empty half counting into o, or into unregistered
// instruments when o is nil.
func newHalf(o *Observer) *half {
	if o == nil {
		o = NewObserver(nil, "")
	}
	return &half{obs: o}
}

func (h *half) ready() int { return len(h.blocks) - h.head }

// push appends one source batch; dur is how long the source ran (for
// the refill histogram).
func (h *half) push(blocks []block.Block, bits []bool, dur time.Duration) {
	h.blocks = append(h.blocks, blocks...)
	h.bits = append(h.bits, bits...)
	h.obs.noteRefill(len(blocks), h.ready(), dur)
}

// pop dispenses n correlations: it copies them out and compacts the
// buffer once the consumed prefix dominates, so dispensed correlations
// never pin the pool's backing array.
func (h *half) pop(n int) (blocks []block.Block, bits []bool) {
	blocks = make([]block.Block, n)
	copy(blocks, h.blocks[h.head:h.head+n])
	if h.bits != nil {
		bits = make([]bool, n)
		copy(bits, h.bits[h.head:h.head+n])
	}
	h.head += n
	if h.head >= compactMin && h.head*2 >= len(h.blocks) {
		rest := copy(h.blocks, h.blocks[h.head:])
		h.blocks = h.blocks[:rest]
		if h.bits != nil {
			copy(h.bits, h.bits[h.head:])
			h.bits = h.bits[:rest]
		}
		h.head = 0
	}
	h.obs.noteDispensed(n, h.ready())
	return blocks, bits
}

// retentionCap is the per-half correlation limit of a two-half stream,
// (Depth+8) batches, or -1 while unknown or unneeded. Correlations are
// pairwise, so a consumer that drains only one half grows the other
// with every refill; when the cap blocks generation, draws on the
// starved half fail with ErrRetained instead of exhausting memory. A
// stream with one half (NewSender, NewReceiver) has nothing to retain:
// its buffer is bounded by the demand on it.
func (st *stream) retentionCap() int {
	if st.s == nil || st.r == nil || st.batch == 0 {
		return -1
	}
	return (st.cfg.Depth + 8) * st.batch
}

// capBlocked reports whether another refill would push the fuller half
// past the retention cap. Pending draw demand is discounted: a half
// that a blocked draw is about to drain is not "retained", so a large
// lockstep draw on both halves never trips the cap once both draws
// have registered. Every source run releases mu, so a concurrent draw
// registers during the first one.
func (st *stream) capBlocked() bool {
	limit := st.retentionCap()
	if limit < 0 {
		return false
	}
	return max(st.s.ready()-st.s.demand, st.r.ready()-st.r.demand)+st.batch > limit
}

// needRefill decides whether the worker should run the source: on
// unmet demand, else by double-buffer hysteresis on the more depleted
// half — dip below low water (half the high-water mark), fill back up
// to high water.
func (st *stream) needRefill() bool {
	if st.capBlocked() {
		// Park regardless of demand: draws on the starved half fail
		// with ErrRetained instead. Hysteresis restarts from the
		// low-water test once the other half drains.
		st.filling = false
		return false
	}
	ready := -1
	for _, h := range [2]*half{st.s, st.r} {
		if h == nil {
			continue
		}
		if h.demand > h.ready() {
			return true
		}
		if ready < 0 || h.ready() < ready {
			ready = h.ready()
		}
	}
	if st.batch == 0 {
		return true // bootstrap: no batch size known yet
	}
	hw := st.cfg.Depth * st.batch
	if st.filling {
		st.filling = ready < hw
		return st.filling
	}
	st.filling = ready < hw/2
	return st.filling
}

// ingest appends one source batch to every half of the stream.
func (st *stream) ingest(z []block.Block, bits []bool, y []block.Block, dur time.Duration) error {
	n := len(z)
	if st.s == nil {
		n = len(y)
	}
	if st.r != nil && (len(bits) != n || len(y) != n) {
		return fmt.Errorf("pool: source length mismatch %d/%d/%d", len(z), len(bits), len(y))
	}
	if st.batch == 0 {
		if n == 0 {
			return errors.New("pool: source produced an empty batch")
		}
		st.batch = n
	}
	if st.s != nil {
		st.s.push(z, nil, dur)
	}
	if st.r != nil {
		st.r.push(y, bits, dur)
	}
	return nil
}

// refill runs the source once and ingests the batch, recording a
// failure in st.err. mu is released while the source — usually an
// interactive protocol iteration — runs, so other draws can register
// their demand and drain the buffer meanwhile; st.running keeps a
// second inline draw from running the source concurrently, and the
// WaitGroup makes Close wait for the iteration as it does for the
// worker's. It broadcasts once the batch is in.
func (st *stream) refill() error {
	st.running = true
	st.wg.Add(1)
	st.mu.Unlock()
	begin := time.Now()
	z, bits, y, err := st.src()
	dur := time.Since(begin)
	st.mu.Lock()
	st.running = false
	st.wg.Done()
	if err == nil {
		err = st.ingest(z, bits, y, dur)
	}
	if err != nil {
		st.err = err
	}
	st.cond.Broadcast()
	return err
}

// runWorker is the background refill loop; it exits on Close or on the
// first source failure.
func (st *stream) runWorker() {
	defer st.wg.Done()
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		for !st.closed && st.err == nil && !st.needRefill() {
			st.cond.Wait()
		}
		if st.closed || st.err != nil {
			return
		}
		_ = st.refill() // a failure is in st.err, which ends the loop
	}
}

// await returns once h holds n ready correlations: with Depth == 0 it
// runs the source inline (or waits out another draw's inline run)
// until it does, with Depth > 0 it blocks on the
// worker until it does or the backpressure bounds (Config.MaxWait /
// MaxWaiters) shed the draw with ErrDry. It fails if the pool is closed
// (checked first: a closed pool dispenses nothing, buffered or not),
// the source has failed and the buffer cannot cover n, or the retention
// cap blocks generation. Waiters re-assert their demand every
// iteration, so clearing it on exit is safe with other draws on the
// same half still queued.
func (st *stream) await(h *half, n int) error {
	blocked := false
	var begin, deadline time.Time
	var timer *time.Timer
	defer func() {
		if blocked {
			h.obs.noteBlockedTime(time.Since(begin))
			st.waiters--
			if timer != nil {
				timer.Stop()
			}
		}
		h.demand = 0
	}()
	for {
		if st.closed {
			return ErrClosed
		}
		if h.ready() >= n {
			return nil
		}
		if st.err != nil {
			return st.err
		}
		if n > h.demand {
			h.demand = n
		}
		if st.capBlocked() {
			// Generation cannot proceed, so this draw can never be
			// satisfied.
			h.obs.stalledDraws.Inc()
			return fmt.Errorf("%w (max %d buffered)", ErrRetained, st.retentionCap())
		}
		if st.cfg.Depth <= 0 {
			// One draw at a time runs the source inline; the rest
			// wait with their demand registered, so a lockstep draw
			// on the other half is discounted from the cap.
			if st.running {
				st.cond.Wait()
			} else if err := st.refill(); err != nil {
				return err
			}
			continue
		}
		if !blocked {
			if st.cfg.MaxWaiters > 0 && st.waiters >= st.cfg.MaxWaiters {
				h.obs.stalledDraws.Inc()
				return fmt.Errorf("%w: %d draws already waiting on generation", ErrDry, st.waiters)
			}
			blocked = true
			st.waiters++
			h.obs.blockedDraws.Inc()
			begin = time.Now()
			if st.cfg.MaxWait > 0 {
				deadline = begin.Add(st.cfg.MaxWait)
				// The timer only wakes the wait loop; the deadline
				// check below decides. Broadcast under the lock so
				// the wakeup cannot slip between the check and Wait.
				timer = time.AfterFunc(st.cfg.MaxWait, func() {
					st.mu.Lock()
					st.cond.Broadcast()
					st.mu.Unlock()
				})
			}
		} else if !deadline.IsZero() && !time.Now().Before(deadline) {
			h.obs.stalledDraws.Inc()
			return fmt.Errorf("%w: draw of %d waited %v for generation", ErrDry, n, st.cfg.MaxWait)
		}
		st.cond.Broadcast() // wake the worker
		st.cond.Wait()
	}
}

// draw hands out n correlations from h, generating (or waiting for
// generation) as needed; mu is not held. The returned slices are owned
// by the caller; bits is nil for a sender half.
func (st *stream) draw(h *half, n int) ([]block.Block, []bool, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("pool: negative draw %d", n)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	h.obs.draws.Inc()
	if err := st.await(h, n); err != nil {
		return nil, nil, err
	}
	blocks, bits := h.pop(n)
	st.cond.Broadcast() // the draw may have crossed the low-water mark
	return blocks, bits, nil
}

// Close stops the worker; after it no draw returns correlations,
// buffered or not. If the worker is mid-iteration inside an interactive
// source, Close blocks until that iteration completes; interrupt a
// wedged iteration by closing the underlying conn first. Views of one
// Dealt share its stream, so closing any of them closes all.
func (st *stream) Close() error {
	st.mu.Lock()
	st.closed = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()
	return nil
}

// SenderRefill produces one batch of sender-half correlations
// (r0 blocks under the pool owner's Δ). ferret.(*Sender).Extend fits.
type SenderRefill func() ([]block.Block, error)

// ReceiverRefill produces one batch of receiver-half correlations
// (choice bits and r_b blocks).
type ReceiverRefill func() ([]bool, []block.Block, error)

// DealtRefill runs one lockstep iteration of both endpoints of an
// in-process pair and returns the sender half (z) and the receiver
// half (bits, y) of the fresh batch.
type DealtRefill func() (z []block.Block, bits []bool, y []block.Block, err error)

// view is one half of a correlation stream: the only half of a
// standalone pool, or one direction of a Dealt.
type view struct {
	*stream
	h *half
}

// Stats snapshots the counters of the view's half. It reads under the
// stream's lock, so the counters agree with each other mid-draw.
func (v view) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.h.obs.snapshot()
}

// Sender draws the sender half of a correlation stream: its own
// (NewSender) or a Dealt's (SenderHalf).
type Sender struct{ view }

// NewSender builds a pool over src. With cfg.Depth > 0 a background
// worker starts prefetching immediately.
func NewSender(src SenderRefill, cfg Config) *Sender {
	lifted := func() ([]block.Block, []bool, []block.Block, error) {
		z, err := src()
		return z, nil, nil, err
	}
	st := newStream(lifted, cfg, newHalf(cfg.Obs), nil)
	return &Sender{view{st, st.s}}
}

// COTs draws n correlations' r0 blocks (r1 = r0 ⊕ Δ implied), waiting
// for (or, when Depth == 0, running) generation as needed. The
// returned slice is owned by the caller.
func (p *Sender) COTs(n int) ([]block.Block, error) {
	z, _, err := p.draw(p.h, n)
	return z, err
}

// Receiver draws the receiver half of a correlation stream: its own
// (NewReceiver) or a Dealt's (ReceiverHalf).
type Receiver struct{ view }

// NewReceiver builds a pool over src; see NewSender.
func NewReceiver(src ReceiverRefill, cfg Config) *Receiver {
	lifted := func() ([]block.Block, []bool, []block.Block, error) {
		bits, y, err := src()
		return nil, bits, y, err
	}
	st := newStream(lifted, cfg, nil, newHalf(cfg.Obs))
	return &Receiver{view{st, st.r}}
}

// COTs draws n correlations: choice bits and matching r_b blocks.
func (p *Receiver) COTs(n int) ([]bool, []block.Block, error) {
	y, bits, err := p.draw(p.h, n)
	return bits, y, err
}

// Dealt buffers both halves of an in-process dealt correlation stream
// under a single worker, so sender-half and receiver-half draws can
// proceed at independent rates without desynchronizing the two
// protocol endpoints. Refills trigger on the more depleted half.
// Correlations are pairwise, so an undrawn half retains every refill;
// a cap of (Depth+8) batches per half bounds that growth, failing
// draws on the starved half with ErrRetained once the cap blocks
// generation (see DESIGN.md).
type Dealt struct{ *stream }

// NewDealt builds the two-halves pool; see NewSender for Depth
// semantics.
func NewDealt(src DealtRefill, cfg Config) *Dealt {
	return &Dealt{newStream(src, cfg, newHalf(cfg.Obs), newHalf(cfg.ObsReceiver))}
}

// SenderCOTs draws n sender-half correlations (r0 blocks).
func (p *Dealt) SenderCOTs(n int) ([]block.Block, error) {
	z, _, err := p.draw(p.s, n)
	return z, err
}

// ReceiverCOTs draws n receiver-half correlations (bits, r_b blocks).
func (p *Dealt) ReceiverCOTs(n int) ([]bool, []block.Block, error) {
	y, bits, err := p.draw(p.r, n)
	return bits, y, err
}

// SenderHalf views the dealt pair's sender direction as a standalone
// drawer; Close closes the SHARED generator, stopping both halves.
func (p *Dealt) SenderHalf() *Sender { return &Sender{view{p.stream, p.s}} }

// ReceiverHalf is the receiver-direction view; the same shared-Close
// caveat applies.
func (p *Dealt) ReceiverHalf() *Receiver { return &Receiver{view{p.stream, p.r}} }
