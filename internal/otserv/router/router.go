package router

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ironman/internal/obs"
	"ironman/internal/otserv"
	"ironman/internal/otserv/wire"
	"ironman/internal/transport"
)

// shardState tracks one shard's availability for placement and
// routing.
type shardState int

const (
	// shardLive accepts placements and routed requests.
	shardLive shardState = iota
	// shardDraining serves routed requests for its existing sessions
	// but takes no new placements; it leaves the fleet at lease expiry.
	shardDraining
	// shardDead failed a request or probe; the health loop re-probes it
	// and revives it (a restarted shard rejoins with empty state).
	shardDead
)

func (s shardState) String() string {
	switch s {
	case shardLive:
		return "live"
	case shardDraining:
		return "draining"
	default:
		return "dead"
	}
}

// shard is the router's view of one dispenser process.
type shard struct {
	addr  string
	id    uint64
	known bool // id learned from a probe or response
	state shardState
}

// Config tunes the fleet router. The router owns its metrics registry
// (served on its admin /metrics) and fixes the rest: 256 virtual nodes
// per shard on the hash ring, a 2 s upstream dial timeout, and a
// token-placement cache of at most 1<<16 entries.
type Config struct {
	// Shards is the initial membership (dispenser listen addresses).
	// Unreachable shards start dead and join when the health loop
	// reaches them.
	Shards []string
	// Probe is the health loop's re-probe interval for dead shards and
	// drain detection. Default 1 s.
	Probe time.Duration
}

const (
	// dialTimeout bounds upstream connection attempts.
	dialTimeout = 2 * time.Second
	// maxTokens bounds the token-placement cache.
	maxTokens = 1 << 16
)

// Router fronts a dispenser fleet: it speaks the same wire protocol as
// a shard, places HELLOs by consistent hash of the session's routing
// token, and proxies everything else to the owning shard (statelessly,
// from the id's shard bits). Clients cannot tell a router from a
// standalone dispenser except by the shard spread of their session ids.
type Router struct {
	cfg Config
	reg *obs.Registry

	mu     sync.Mutex
	shards map[string]*shard
	byID   map[uint64]*shard
	ring   ring
	tokens map[string]string // routing token -> owning shard addr
	loop   otserv.Loop

	stop chan struct{}
	done chan struct{}

	mShardsLive *obs.Gauge   // ironman_router_shards_live
	mPlacements *obs.Counter // ironman_router_placements_total
	mRetries    *obs.Counter // ironman_router_placement_retries_total
	mDeadMarks  *obs.Counter // ironman_router_dead_marks_total
	mLeaseErrs  *obs.Counter // ironman_router_lease_errors_total
}

// New builds a router over the configured shards and starts its
// health loop. Shards that answer a probe join the ring immediately;
// the rest start dead and join when they come up.
func New(cfg Config) *Router {
	if cfg.Probe <= 0 {
		cfg.Probe = time.Second
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:         cfg,
		reg:         reg,
		shards:      make(map[string]*shard),
		byID:        make(map[uint64]*shard),
		tokens:      make(map[string]string),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		mShardsLive: reg.Gauge("ironman_router_shards_live"),
		mPlacements: reg.Counter("ironman_router_placements_total"),
		mRetries:    reg.Counter("ironman_router_placement_retries_total"),
		mDeadMarks:  reg.Counter("ironman_router_dead_marks_total"),
		mLeaseErrs:  reg.Counter("ironman_router_lease_errors_total"),
	}
	for _, addr := range cfg.Shards {
		r.AddShard(addr)
	}
	go r.health()
	return r
}

// AddShard joins a shard into the fleet (live add). The shard is
// probed immediately; if unreachable it starts dead and the health
// loop keeps trying.
func (r *Router) AddShard(addr string) {
	r.mu.Lock()
	if _, ok := r.shards[addr]; ok {
		r.mu.Unlock()
		return
	}
	r.shards[addr] = &shard{addr: addr, state: shardDead}
	r.mu.Unlock()
	r.probe(addr)
}

// DrainShard takes a shard out of placement at the router and asks for
// nothing else: routed requests for its existing sessions keep
// flowing until the leases run out. Pair it with the shard's own admin
// /drain so direct HELLOs are refused too.
func (r *Router) DrainShard(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[addr]
	if !ok {
		return false
	}
	if sh.state == shardLive {
		sh.state = shardDraining
		r.rebuildLocked()
	}
	return true
}

// ShardView is one shard's externally visible routing state.
type ShardView struct {
	Addr  string `json:"addr"`
	Shard uint64 `json:"shard"`
	State string `json:"state"`
}

// Shards reports the fleet membership in address order.
func (r *Router) Shards() []ShardView {
	r.mu.Lock()
	views := make([]ShardView, 0, len(r.shards))
	for _, sh := range r.shards {
		views = append(views, ShardView{Addr: sh.addr, Shard: sh.id, State: sh.state.String()})
	}
	r.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Addr < views[j].Addr })
	return views
}

// rebuildLocked recomputes the placement ring from live shards and the
// live-shard gauge; the caller holds r.mu.
func (r *Router) rebuildLocked() {
	var all []*shard
	for _, sh := range r.shards {
		all = append(all, sh)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].addr < all[j].addr })
	var live []string
	for _, sh := range all {
		if sh.state == shardLive {
			live = append(live, sh.addr)
		}
	}
	r.ring = buildRing(live)
	r.mShardsLive.Set(int64(len(live)))
}

// probe health-checks one shard over a fresh connection: a STATS(0)
// round trip teaches the router the shard's id and drain state. Dial
// and round trip together are bounded by dialTimeout, so a shard that
// accepts but never answers is marked dead instead of stalling New,
// the health loop, Close and /shards/add.
func (r *Router) probe(addr string) {
	deadline := time.Now().Add(dialTimeout)
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		r.setState(addr, shardDead, 0, false)
		return
	}
	c := otserv.NewClient(transport.NewTCP(nc))
	defer func() { _ = c.Close() }()
	var dump *wire.StatsDump
	if err = nc.SetDeadline(deadline); err == nil {
		dump, err = c.ServerStats()
	}
	if err != nil {
		r.setState(addr, shardDead, 0, false)
		return
	}
	if dump.Draining {
		r.setState(addr, shardDraining, dump.Shard, true)
		return
	}
	r.setState(addr, shardLive, dump.Shard, true)
}

// setState records a shard's probed state and rebuilds the ring on
// transitions.
func (r *Router) setState(addr string, st shardState, id uint64, known bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[addr]
	if !ok {
		return
	}
	if known {
		if sh.known && sh.id != id {
			// The process at this address came back as a different
			// shard id (operator remapped it); rehome the id index.
			delete(r.byID, sh.id)
		}
		sh.id = id
		sh.known = true
		r.byID[id] = sh
	}
	if sh.state != st {
		sh.state = st
		r.rebuildLocked()
	}
}

// markDead records an upstream failure: the shard leaves the ring now
// and the health loop owns bringing it back.
func (r *Router) markDead(addr string) {
	r.mDeadMarks.Inc()
	r.setState(addr, shardDead, 0, false)
}

// deadShards lists shards the health loop should re-probe, in address
// order.
func (r *Router) deadShards() []string {
	r.mu.Lock()
	var addrs []string
	for _, sh := range r.shards {
		if sh.state != shardLive {
			addrs = append(addrs, sh.addr)
		}
	}
	r.mu.Unlock()
	sort.Strings(addrs)
	return addrs
}

func (r *Router) health() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.Probe)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			for _, addr := range r.deadShards() {
				// Close waits for this loop: stop between probes, so
				// it waits for at most the one in flight.
				select {
				case <-r.stop:
					return
				default:
				}
				r.probe(addr)
			}
		}
	}
}

// placement returns the candidate shards for a new session with the
// given routing token: the ring owner first, then the other live
// shards in circle order (the retry path when the owner drains or
// dies mid-placement).
func (r *Router) placement(token string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.sequence(token)
}

// addrForShard resolves a shard id to its address; ok is false when
// the shard is unknown or dead (routed requests then fail typed, so
// clients of a killed shard never hang).
func (r *Router) addrForShard(id uint64) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.byID[id]
	if !ok || sh.state == shardDead {
		return "", false
	}
	return sh.addr, true
}

// recordToken caches a session token's placement for reconnect
// routing. The cache is bounded; when full it is dropped wholesale —
// forgotten tokens degrade to the try-all-shards reconnect path, not
// to an error.
func (r *Router) recordToken(token, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tokens) >= maxTokens {
		r.tokens = make(map[string]string)
	}
	r.tokens[token] = addr
}

// dropToken forgets a cached placement (the shard said the lease is
// gone).
func (r *Router) dropToken(token string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tokens, token)
}

// reattachCandidates orders the shards to try for a token reconnect:
// the cached placement first, then every routable shard (live or
// draining — a draining shard still serves its leases) in address
// order. The list is built under r.mu: setState writes shard state
// there.
func (r *Router) reattachCandidates(token string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	cached, hasCached := r.tokens[token]
	var all []*shard
	for _, sh := range r.shards {
		all = append(all, sh)
	}
	if hasCached {
		if sh, ok := r.shards[cached]; !ok || sh.state == shardDead {
			hasCached = false
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].addr < all[j].addr })
	var rest []string
	for _, sh := range all {
		if sh.state != shardDead && sh.addr != cached {
			rest = append(rest, sh.addr)
		}
	}
	if hasCached {
		return append([]string{cached}, rest...)
	}
	return rest
}

// Serve accepts dispenser clients on ln until the listener fails or
// the router is closed. It blocks; run it on its own goroutine when
// the caller needs to keep working.
func (r *Router) Serve(ln net.Listener) error { return r.loop.Serve(ln, r.open) }

// Close stops the router: the listener, every client connection (whose
// upstream conns close with them — shards then orphan the affected
// sessions into their lease windows), and the health loop.
func (r *Router) Close() error {
	if r.loop.Close() {
		close(r.stop)
	}
	<-r.done
	return nil
}

// noShards is the typed placement failure when every shard refused or
// died: ErrDraining, so clients back off and retry rather than treat
// it as fatal.
func noShards() []byte {
	return wire.ErrResponse(fmt.Errorf("%w: no shard accepted the session", wire.ErrDraining))
}
