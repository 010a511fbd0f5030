package router

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ironman/internal/obs"
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

// Config tunes the fleet router.
type Config struct {
	// Shards is the initial membership (dispenser listen addresses).
	// Unreachable shards start dead and join when the health loop
	// reaches them.
	Shards []string
	// VNodes is the virtual-node count per shard on the hash ring.
	// Default 256.
	VNodes int
	// Probe is the health loop's re-probe interval for dead shards and
	// drain detection. Default 1 s.
	Probe time.Duration
	// DialTimeout bounds upstream connection attempts. Default 2 s.
	DialTimeout time.Duration
	// MaxTokens bounds the token-placement cache. Default 1<<16.
	MaxTokens int
	// Registry receives the router's metrics. nil creates one.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 256
	}
	if c.Probe <= 0 {
		c.Probe = time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = 1 << 16
	}
	return c
}

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
	ln     net.Listener
	conns  map[transport.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

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
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:         cfg,
		reg:         reg,
		shards:      make(map[string]*shard),
		byID:        make(map[uint64]*shard),
		tokens:      make(map[string]string),
		conns:       make(map[transport.Conn]struct{}),
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
	r.ring = buildRing(live, r.cfg.VNodes)
	r.mShardsLive.Set(int64(len(live)))
}

// probe health-checks one shard over a fresh connection: a STATS(0)
// round trip teaches the router the shard's id and drain state.
func (r *Router) probe(addr string) {
	nc, err := net.DialTimeout("tcp", addr, r.cfg.DialTimeout)
	if err != nil {
		r.setState(addr, shardDead, 0, false)
		return
	}
	conn := transport.NewTCP(nc)
	defer func() { _ = conn.Close() }()
	dump, err := statsRoundTrip(conn)
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

// statsRoundTrip fetches a shard's StatsDump over conn.
func statsRoundTrip(conn transport.Conn) (wire.StatsDump, error) {
	var dump wire.StatsDump
	if err := conn.Send(wire.SessionReq(wire.OpStats, 0)); err != nil {
		return dump, err
	}
	resp, err := conn.Recv()
	if err != nil {
		return dump, err
	}
	if len(resp) < 1 || resp[0] != wire.StatusOK {
		return dump, errors.New("router: shard STATS failed")
	}
	return dump, unmarshalDump(resp[1:], &dump)
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
	if len(r.tokens) >= r.cfg.MaxTokens {
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
// order.
func (r *Router) reattachCandidates(token string) []string {
	r.mu.Lock()
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
	r.mu.Unlock()
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

// newRouteToken samples a fresh fleet-wide routing token for a HELLO
// that pinned none.
func newRouteToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Serve accepts dispenser clients on ln until the listener fails or
// the router is closed. It blocks; run it on its own goroutine when
// the caller needs to keep working.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("router: closed")
	}
	r.ln = ln
	r.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		conn := transport.NewTCP(nc)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go r.handleConn(conn)
	}
}

// Close stops the router: the health loop, the listener, and every
// client connection (whose upstream conns close with them — shards
// then orphan the affected sessions into their lease windows).
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	ln := r.ln
	for conn := range r.conns {
		_ = conn.Close()
	}
	r.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	close(r.stop)
	r.wg.Wait()
	<-r.done
	return nil
}

// noShards is the typed placement failure when every shard refused or
// died: ErrDraining, so clients back off and retry rather than treat
// it as fatal.
func noShards() []byte {
	return wire.ErrResponse(fmt.Errorf("%w: no shard accepted the session", wire.ErrDraining))
}
