package session

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ironman/internal/obs"
	"ironman/internal/otserv/wire"
	"ironman/internal/pool"
)

// tombTTL is how long an expired session's token is remembered so a
// late reconnect gets the typed lease error instead of a generic miss.
const tombTTL = 5 * time.Minute

// maxTombs bounds the tombstone map; beyond it arbitrary entries are
// evicted (a reconnect evicted early degrades to the same typed error
// with less detail, never to a hang).
const maxTombs = 4096

// tenant is one accounting principal's shard-local state: its open
// session count (sessions-per-tenant cap) and its draw-rate bucket,
// shared across the tenant's sessions.
type tenant struct {
	open   int
	bucket *bucket
}

// Registry owns every session on one shard. It is the session layer's
// root object: transports call Open/Attach*/Detach/Close around their
// connection lifecycles and draw through the *Session they get back;
// the registry runs the lease janitor, enforces per-tenant quotas, and
// serves serializable stats snapshots.
type Registry struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	sessions map[uint64]*Session
	byToken  map[string]*Session
	tombs    map[string]time.Time // routing token -> teardown instant
	tenants  map[string]*tenant
	seq      uint64
	pending  int // Opens past reservation, not yet registered
	opened   uint64
	closed   uint64
	expired  uint64
	quota    uint64 // quota sheds served
	dry      uint64 // pool-dry sheds served
	draining bool
	shut     bool

	stop chan struct{} // closes to stop the janitor
	done chan struct{} // janitor exit

	mSessions *obs.Gauge   // ironman_otserv_sessions
	mOpened   *obs.Counter // ironman_otserv_sessions_opened_total
	mClosed   *obs.Counter // ironman_otserv_sessions_closed_total
	mExpired  *obs.Counter // ironman_otserv_sessions_expired_total
	mQuota    *obs.Counter // ironman_otserv_quota_sheds_total
	mDry      *obs.Counter // ironman_otserv_dry_sheds_total
}

// NewRegistry builds a session registry and starts its lease janitor.
// Close stops the janitor and tears down every session.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Registry{
		cfg:       cfg,
		reg:       reg,
		sessions:  make(map[uint64]*Session),
		byToken:   make(map[string]*Session),
		tombs:     make(map[string]time.Time),
		tenants:   make(map[string]*tenant),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		mSessions: reg.Gauge("ironman_otserv_sessions"),
		mOpened:   reg.Counter("ironman_otserv_sessions_opened_total"),
		mClosed:   reg.Counter("ironman_otserv_sessions_closed_total"),
		mExpired:  reg.Counter("ironman_otserv_sessions_expired_total"),
		mQuota:    reg.Counter("ironman_otserv_quota_sheds_total"),
		mDry:      reg.Counter("ironman_otserv_dry_sheds_total"),
	}
	go r.janitor()
	return r
}

// ShardID is the id prefix this registry stamps on its sessions.
func (r *Registry) ShardID() uint64 { return r.cfg.ShardID }

// Obs is the metrics registry the sessions report into.
func (r *Registry) Obs() *obs.Registry { return r.reg }

func (r *Registry) janitor() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.Sweep)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.Expire(r.cfg.now())
		}
	}
}

// tenantLocked returns (creating if needed) a tenant's state; callers
// hold r.mu.
func (r *Registry) tenantLocked(name string) *tenant {
	tn := r.tenants[name]
	if tn == nil {
		tn = &tenant{bucket: newBucket(r.cfg.Quota, r.cfg.now)}
		r.tenants[name] = tn
	}
	return tn
}

// Open mints a session: backend negotiation and tenant admission first
// (zero state exists when they refuse), then the dealt extension pair,
// then registration under a shard-scoped id. The caller holds the
// creator reference (refcount 1).
func (r *Registry) Open(req OpenRequest) (*Session, error) {
	backend, err := r.cfg.backend(req.Backend)
	if err != nil {
		return nil, err
	}
	name := req.Params
	if name == "" {
		name = r.cfg.DefaultParams
	}
	params, err := r.cfg.Resolve(name)
	if err != nil {
		return nil, err
	}
	depth := req.Depth
	if depth <= 0 {
		depth = r.cfg.Depth
	}
	if depth > r.cfg.MaxDepth {
		depth = r.cfg.MaxDepth
	}

	// Reserve a slot: capacity and tenant admission are charged before
	// the expensive pair construction so a rejected open is cheap, and
	// concurrent opens cannot oversubscribe MaxSessions.
	r.mu.Lock()
	if r.shut {
		r.mu.Unlock()
		return nil, errors.New("session: registry closed")
	}
	if r.draining {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: shard %d is draining", wire.ErrDraining, r.cfg.ShardID)
	}
	if len(r.sessions)+r.pending >= r.cfg.MaxSessions {
		r.mu.Unlock()
		return nil, fmt.Errorf("session: session limit %d reached", r.cfg.MaxSessions)
	}
	tn := r.tenantLocked(req.Tenant)
	if cap := r.cfg.Quota.SessionsPerTenant; cap > 0 && tn.open >= cap {
		r.quota++
		r.mQuota.Inc()
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant session limit %d reached", wire.ErrQuotaExceeded, cap)
	}
	if req.Token != "" {
		if _, dup := r.byToken[req.Token]; dup {
			r.mu.Unlock()
			return nil, errors.New("session: routing token already in use")
		}
	}
	tn.open++
	r.pending++
	r.mu.Unlock()

	sess, src, err := openSession(r.cfg, name, backend, params, req)
	if err != nil {
		r.mu.Lock()
		tn.open--
		r.pending--
		r.mu.Unlock()
		return nil, err
	}
	sess.bucket = tn.bucket
	sess.reg = r

	r.mu.Lock()
	r.pending--
	if r.shut || r.draining {
		tn.open--
		drain := r.draining
		r.mu.Unlock()
		_ = sess.connA.Close()
		_ = sess.connB.Close()
		if drain {
			return nil, fmt.Errorf("%w: shard %d is draining", wire.ErrDraining, r.cfg.ShardID)
		}
		return nil, errors.New("session: registry closed")
	}
	r.seq++
	sess.id = wire.SessionID(r.cfg.ShardID, r.seq)
	sess.labels = obs.Labels("session", fmt.Sprint(sess.id))
	sess.obsS = pool.NewObserver(r.reg, obs.Labels(
		"session", fmt.Sprint(sess.id), "half", "sender", "params", name))
	sess.obsR = pool.NewObserver(r.reg, obs.Labels(
		"session", fmt.Sprint(sess.id), "half", "receiver", "params", name))
	// Start prefetching only once the session is registered.
	sess.pool = pool.NewDealt(src, pool.Config{
		Depth: depth, MaxWait: r.cfg.DrawWait, MaxWaiters: r.cfg.DrawWaiters,
		Obs: sess.obsS, ObsReceiver: sess.obsR,
	})
	r.sessions[sess.id] = sess
	r.byToken[sess.token] = sess
	r.opened++
	r.mSessions.Set(int64(len(r.sessions)))
	r.mOpened.Inc()
	r.mu.Unlock()
	return sess, nil
}

// AttachByID joins a session by its shard-scoped numeric id. A missing
// session and a bad capability produce one indistinguishable error, so
// probing cannot map live session ids.
func (r *Registry) AttachByID(id uint64, capability string) (*Session, wire.Role, error) {
	r.mu.Lock()
	sess := r.sessions[id]
	var role wire.Role
	ok := sess != nil
	if ok {
		role, ok = sess.role(capability)
	}
	if !ok {
		r.mu.Unlock()
		return nil, "", fmt.Errorf("session: no session %d for that token", id)
	}
	sess.refs++
	sess.expiresAt = time.Time{}
	r.mu.Unlock()
	return sess, role, nil
}

// AttachByToken joins a session by its fleet-wide routing token — the
// reconnect path. An expired (or simply unknown) token fails with the
// typed wire.ErrLeaseExpired so a client of a dead or restarted shard
// always gets a actionable rejection, never a hang or a generic miss.
func (r *Registry) AttachByToken(token, capability string) (*Session, wire.Role, error) {
	r.mu.Lock()
	sess := r.byToken[token]
	if sess == nil {
		_, tombed := r.tombs[token]
		r.mu.Unlock()
		if tombed {
			return nil, "", fmt.Errorf("%w: session lease expired; open a new session", wire.ErrLeaseExpired)
		}
		return nil, "", fmt.Errorf("%w: unknown session token on shard %d", wire.ErrLeaseExpired, r.cfg.ShardID)
	}
	role, ok := sess.role(capability)
	if !ok {
		r.mu.Unlock()
		return nil, "", errors.New("session: bad capability token")
	}
	sess.refs++
	sess.expiresAt = time.Time{}
	r.mu.Unlock()
	return sess, role, nil
}

// Detach drops one reference. At refcount zero the session either
// tears down immediately (orphan=false: the client said CLOSE) or
// starts its lease clock (orphan=true: the connection just died and
// the client may reconnect-with-token inside the window).
func (r *Registry) Detach(id uint64, orphan bool) {
	r.mu.Lock()
	sess := r.sessions[id]
	if sess == nil {
		r.mu.Unlock()
		return
	}
	sess.refs--
	if sess.refs > 0 {
		r.mu.Unlock()
		return
	}
	if orphan {
		sess.expiresAt = r.cfg.now().Add(sess.lease)
		r.mu.Unlock()
		return
	}
	r.unregisterLocked(sess, false)
	r.mu.Unlock()
	teardown(sess)
	r.dropSeries(sess)
}

// Expire tears down every orphan whose lease ran out as of now,
// leaving tombstones. The janitor calls this each sweep; tests call it
// directly with a pinned clock.
func (r *Registry) Expire(now time.Time) int {
	r.mu.Lock()
	var doomed []*Session
	for _, sess := range r.sessions {
		if sess.refs == 0 && !sess.expiresAt.IsZero() && !now.Before(sess.expiresAt) {
			doomed = append(doomed, sess)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].id < doomed[j].id })
	for _, sess := range doomed {
		r.unregisterLocked(sess, true)
	}
	for token, at := range r.tombs {
		if now.Sub(at) > tombTTL {
			delete(r.tombs, token)
		}
	}
	r.mu.Unlock()
	for _, sess := range doomed {
		teardown(sess)
		r.dropSeries(sess)
	}
	return len(doomed)
}

// unregisterLocked removes a session from the maps and records the
// tombstone and counters; the caller holds r.mu and must run teardown
// + dropSeries after unlocking (pool.Close waits on the worker).
func (r *Registry) unregisterLocked(sess *Session, expired bool) {
	delete(r.sessions, sess.id)
	delete(r.byToken, sess.token)
	if len(r.tombs) >= maxTombs {
		for t := range r.tombs {
			delete(r.tombs, t)
			break
		}
	}
	r.tombs[sess.token] = r.cfg.now()
	r.closed++
	r.mClosed.Inc()
	if expired {
		r.expired++
		r.mExpired.Inc()
	}
	if tn := r.tenants[sess.tenant]; tn != nil {
		tn.open--
	}
	r.mSessions.Set(int64(len(r.sessions)))
}

// teardown stops a session's prefetch worker and closes its pipes.
// pool.Close completes the in-flight lockstep iteration first (the
// worker drives both pipe endpoints, so it cannot wedge).
func teardown(sess *Session) {
	_ = sess.pool.Close()
	_ = sess.connA.Close()
	_ = sess.connB.Close()
}

// dropSeries retires the session's metric series so registry
// cardinality stays bounded by live sessions, not lifetime count.
func (r *Registry) dropSeries(sess *Session) {
	key := "{" + sess.labels + ","
	r.reg.Drop(func(name string) bool { return strings.Contains(name, key) })
}

// Drain flips the shard into lame-duck mode: new opens are refused
// with wire.ErrDraining while existing sessions keep serving draws to
// lease expiry or CLOSE. Attach stays allowed — reconnects to live
// sessions are part of serving them out.
func (r *Registry) Drain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// Draining reports lame-duck mode.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Len is the live session count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Close stops the janitor and tears down every session in id order.
// Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.shut {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.shut = true
	doomed := make([]*Session, 0, len(r.sessions))
	for _, sess := range r.sessions {
		doomed = append(doomed, sess)
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].id < doomed[j].id })
	for _, sess := range doomed {
		r.unregisterLocked(sess, false)
	}
	r.mu.Unlock()
	close(r.stop)
	for _, sess := range doomed {
		teardown(sess)
		r.dropSeries(sess)
	}
	<-r.done
}

// Stats serves one session's serializable view, or an error if the id
// is no longer live.
func (r *Registry) Stats(id uint64) (wire.SessionStats, error) {
	r.mu.Lock()
	sess := r.sessions[id]
	if sess == nil {
		r.mu.Unlock()
		return wire.SessionStats{}, fmt.Errorf("session: no session %d", id)
	}
	refs := sess.refs
	expiresIn := r.expiresInLocked(sess)
	r.mu.Unlock()
	return sess.stats(refs, expiresIn), nil
}

func (r *Registry) expiresInLocked(sess *Session) time.Duration {
	if sess.refs != 0 || sess.expiresAt.IsZero() {
		return 0
	}
	d := sess.expiresAt.Sub(r.cfg.now())
	if d < 0 {
		d = 0
	}
	return d
}

// Dump assembles the shard-wide serializable stats view.
func (r *Registry) Dump() wire.StatsDump {
	r.mu.Lock()
	dump := wire.StatsDump{
		Shard:           r.cfg.ShardID,
		Sessions:        len(r.sessions),
		SessionsOpened:  r.opened,
		SessionsClosed:  r.closed,
		SessionsExpired: r.expired,
		QuotaSheds:      r.quota,
		DrySheds:        r.dry,
		MaxSessions:     r.cfg.MaxSessions,
		Draining:        r.draining,
		Backends:        r.cfg.Backends,
	}
	type entry struct {
		sess      *Session
		refs      int
		expiresIn time.Duration
	}
	entries := make([]entry, 0, len(r.sessions))
	for _, sess := range r.sessions {
		entries = append(entries, entry{sess, sess.refs, r.expiresInLocked(sess)})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].sess.id < entries[j].sess.id })
	for _, e := range entries {
		dump.PerSession = append(dump.PerSession, e.sess.stats(e.refs, e.expiresIn))
	}
	return dump
}

// noteQuotaShed records one typed quota rejection served.
func (r *Registry) noteQuotaShed() {
	r.mu.Lock()
	r.quota++
	r.mu.Unlock()
	r.mQuota.Inc()
}

// mapDrawErr turns pool-layer failures into the wire protocol's typed
// sentinels: bounded-wait sheds become wire.ErrPoolDry, draws on a
// torn-down (expired or closed) session become wire.ErrLeaseExpired.
func (r *Registry) mapDrawErr(err error) error {
	switch {
	case errors.Is(err, pool.ErrDry):
		r.mu.Lock()
		r.dry++
		r.mu.Unlock()
		r.mDry.Inc()
		return fmt.Errorf("%w: %v", wire.ErrPoolDry, err)
	case errors.Is(err, pool.ErrClosed):
		return fmt.Errorf("%w: session torn down mid-draw", wire.ErrLeaseExpired)
	}
	return err
}
