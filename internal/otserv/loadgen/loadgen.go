// Package loadgen drives a dispenser fleet the way a large MPC
// deployment would: thousands of concurrent sessions spread over a
// bounded set of client connections, each drawing correlated OTs in a
// steady rhythm while the generator samples per-draw latency and
// watches the shard spread. It speaks only the public client API, so
// whatever it measures is what a real consumer gets.
package loadgen

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ironman/internal/otserv"
	"ironman/internal/otserv/wire"
)

// Config shapes one load run.
type Config struct {
	// Addr is the fleet front (router) or a single dispenser.
	Addr string
	// Sessions is the number of concurrent sessions to sustain.
	Sessions int
	// Conns is the number of client connections the sessions share
	// (sessions serialize per connection, so this bounds parallelism
	// on the wire without burning a file descriptor per session).
	Conns int
	// DrawsPerSession is how many draws each session performs; the
	// halves alternate sender/receiver so the dealt pool drains evenly.
	DrawsPerSession int
	// DrawN is the number of correlated OTs per draw.
	DrawN int
	// Params names the parameter set for every session.
	Params string
	// Depth is the requested prefetch depth per session.
	Depth int
	// Tenants is the number of distinct tenant principals to spread
	// sessions across (0 = all anonymous).
	Tenants int
	// Lease is the per-session lease to request (0 = server default).
	Lease time.Duration
	// Timeout bounds the whole run; exceeding it fails the run with
	// ErrStalled instead of hanging (the fleet's no-deadlock bar).
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 1024
	}
	if c.Conns <= 0 {
		c.Conns = 64
	}
	if c.Conns > c.Sessions {
		c.Conns = c.Sessions
	}
	if c.DrawsPerSession <= 0 {
		c.DrawsPerSession = 8
	}
	if c.DrawN <= 0 {
		c.DrawN = 128
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	return c
}

// ErrStalled reports that the run exceeded its deadline — some draw or
// handshake never completed, which the fleet contract forbids.
var ErrStalled = errors.New("loadgen: run exceeded its deadline (possible deadlock)")

// Percentiles summarizes a latency distribution in microseconds.
type Percentiles struct {
	P50 int64 `json:"p50_us"`
	P95 int64 `json:"p95_us"`
	P99 int64 `json:"p99_us"`
	Max int64 `json:"max_us"`
}

// ShardLoad is the per-shard slice of the run.
type ShardLoad struct {
	Shard    uint64 `json:"shard"`
	Sessions int    `json:"sessions"`
	Draws    uint64 `json:"draws"`
}

// Report is the committed artifact of a load run.
type Report struct {
	Addr            string      `json:"addr"`
	Sessions        int         `json:"sessions"`
	Conns           int         `json:"conns"`
	DrawsPerSession int         `json:"draws_per_session"`
	DrawN           int         `json:"draw_n"`
	Params          string      `json:"params"`
	Tenants         int         `json:"tenants"`
	DurationMS      int64       `json:"duration_ms"`
	SessionsOpened  int         `json:"sessions_opened"`
	SessionsFailed  int         `json:"sessions_failed"`
	Draws           uint64      `json:"draws"`
	Blocks          uint64      `json:"blocks"`
	QuotaSheds      uint64      `json:"quota_sheds"`
	DrySheds        uint64      `json:"dry_sheds"`
	LeaseErrors     uint64      `json:"lease_errors"`
	OtherErrors     uint64      `json:"other_errors"`
	DrawLatency     Percentiles `json:"draw_latency"`
	HelloLatency    Percentiles `json:"hello_latency"`
	PerShard        []ShardLoad `json:"per_shard"`
	// BalanceMaxOverEven is the most loaded shard's session count over
	// the even share (sessions / shards); the fleet bar is <= 2.
	BalanceMaxOverEven float64 `json:"balance_max_over_even"`
	DrawsPerSec        float64 `json:"draws_per_sec"`
}

// tally accumulates worker results under one lock.
type tally struct {
	mu         sync.Mutex
	drawLat    []time.Duration
	helloLat   []time.Duration
	opened     int
	failed     int
	draws      uint64
	blocks     uint64
	quota      uint64
	dry        uint64
	lease      uint64
	other      uint64
	shardSess  map[uint64]int
	shardDraws map[uint64]uint64
}

func (t *tally) countErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case errors.Is(err, otserv.ErrQuotaExceeded):
		t.quota++
	case errors.Is(err, otserv.ErrPoolDry):
		t.dry++
	case errors.Is(err, otserv.ErrLeaseExpired):
		t.lease++
	default:
		t.other++
	}
}

// Run executes the configured load and reports. Session open failures
// are tolerated (counted and classified); a run that cannot finish
// before cfg.Timeout fails with ErrStalled.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	clients := make([]*otserv.Client, cfg.Conns)
	for i := range clients {
		c, err := otserv.Dial(cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("loadgen: dial %d: %w", i, err)
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}

	t := &tally{
		shardSess:  make(map[uint64]int),
		shardDraws: make(map[uint64]uint64),
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runSession(cfg, clients[i%cfg.Conns], i, t)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.Timeout):
		return nil, ErrStalled
	}
	elapsed := time.Since(start)

	rep := &Report{
		Addr:            cfg.Addr,
		Sessions:        cfg.Sessions,
		Conns:           cfg.Conns,
		DrawsPerSession: cfg.DrawsPerSession,
		DrawN:           cfg.DrawN,
		Params:          cfg.Params,
		Tenants:         cfg.Tenants,
		DurationMS:      elapsed.Milliseconds(),
		SessionsOpened:  t.opened,
		SessionsFailed:  t.failed,
		Draws:           t.draws,
		Blocks:          t.blocks,
		QuotaSheds:      t.quota,
		DrySheds:        t.dry,
		LeaseErrors:     t.lease,
		OtherErrors:     t.other,
		DrawLatency:     percentiles(t.drawLat),
		HelloLatency:    percentiles(t.helloLat),
	}
	var shards []uint64
	for id := range t.shardSess {
		shards = append(shards, id)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	maxSess := 0
	for _, id := range shards {
		rep.PerShard = append(rep.PerShard, ShardLoad{Shard: id, Sessions: t.shardSess[id], Draws: t.shardDraws[id]})
		if t.shardSess[id] > maxSess {
			maxSess = t.shardSess[id]
		}
	}
	if len(shards) > 0 && t.opened > 0 {
		even := float64(t.opened) / float64(len(shards))
		rep.BalanceMaxOverEven = float64(maxSess) / even
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.DrawsPerSec = float64(t.draws) / secs
	}
	return rep, nil
}

// runSession is one session's life: open, alternate sender/receiver
// draws, close.
func runSession(cfg Config, c *otserv.Client, i int, t *tally) {
	scfg := otserv.SessionConfig{
		Params: cfg.Params,
		Depth:  cfg.Depth,
		Lease:  cfg.Lease,
	}
	if cfg.Tenants > 0 {
		scfg.Tenant = fmt.Sprintf("tenant-%02d", i%cfg.Tenants)
	}
	t0 := time.Now()
	sess, err := c.NewSession(scfg)
	helloDur := time.Since(t0)
	if err != nil {
		t.countErr(err)
		t.mu.Lock()
		t.failed++
		t.mu.Unlock()
		return
	}
	shard := wire.ShardOf(sess.ID())
	t.mu.Lock()
	t.opened++
	t.shardSess[shard]++
	t.helloLat = append(t.helloLat, helloDur)
	t.mu.Unlock()

	var localLat []time.Duration
	var localDraws, localBlocks uint64
	for d := 0; d < cfg.DrawsPerSession; d++ {
		d0 := time.Now()
		if d%2 == 0 {
			_, err = sess.SenderCOTs(cfg.DrawN)
		} else {
			_, _, err = sess.ReceiverCOTs(cfg.DrawN)
		}
		if err != nil {
			t.countErr(err)
			continue
		}
		localLat = append(localLat, time.Since(d0))
		localDraws++
		localBlocks += uint64(cfg.DrawN)
	}
	_ = sess.Close()

	t.mu.Lock()
	t.drawLat = append(t.drawLat, localLat...)
	t.draws += localDraws
	t.blocks += localBlocks
	t.shardDraws[shard] += localDraws
	t.mu.Unlock()
}

// percentiles computes exact rank percentiles over the sample set.
func percentiles(lat []time.Duration) Percentiles {
	if len(lat) == 0 {
		return Percentiles{}
	}
	sorted := append([]time.Duration{}, lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i].Microseconds()
	}
	return Percentiles{
		P50: at(0.50),
		P95: at(0.95),
		P99: at(0.99),
		Max: sorted[len(sorted)-1].Microseconds(),
	}
}
