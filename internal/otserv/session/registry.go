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

// errTokenInUse refuses an open that pins the routing token of a live
// session.
var errTokenInUse = errors.New("session: routing token already in use")

// Registry owns every session on one shard. It is the session layer's
// root object: transports call Open/AttachByToken/Detach/Close around
// their connection lifecycles and draw through the *Session they get
// back; the registry arms each orphan's lease timer, bounds the
// shard's open sessions, and serves serializable stats snapshots.
type Registry struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	sessions map[uint64]*Session
	byToken  map[string]*Session
	seq      uint64
	pending  int // Opens past reservation, not yet registered
	draining bool
	shut     bool

	// The lifecycle counters; Dump reads these, so STATS and /metrics
	// agree by construction.
	mSessions *obs.Gauge   // ironman_otserv_sessions
	mOpened   *obs.Counter // ironman_otserv_sessions_opened_total
	mClosed   *obs.Counter // ironman_otserv_sessions_closed_total
	mExpired  *obs.Counter // ironman_otserv_sessions_expired_total
	mDry      *obs.Counter // ironman_otserv_dry_sheds_total
}

// NewRegistry builds a session registry with its own metrics registry
// (Obs). Close tears down every session.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	r := &Registry{
		cfg:       cfg,
		reg:       reg,
		sessions:  make(map[uint64]*Session),
		byToken:   make(map[string]*Session),
		mSessions: reg.Gauge("ironman_otserv_sessions"),
		mOpened:   reg.Counter("ironman_otserv_sessions_opened_total"),
		mClosed:   reg.Counter("ironman_otserv_sessions_closed_total"),
		mExpired:  reg.Counter("ironman_otserv_sessions_expired_total"),
		mDry:      reg.Counter("ironman_otserv_dry_sheds_total"),
	}
	return r
}

// ShardID is the id prefix this registry stamps on its sessions.
func (r *Registry) ShardID() uint64 { return r.cfg.ShardID }

// Obs is the metrics registry the sessions report into.
func (r *Registry) Obs() *obs.Registry { return r.reg }

// Open mints a session: backend negotiation and the capacity check
// first (zero state exists when they refuse), then the dealt extension
// pair, then registration under a shard-scoped id. The caller holds the
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

	// Reserve a slot: capacity is charged before the expensive pair
	// construction so a rejected open is cheap, and concurrent opens
	// cannot oversubscribe MaxSessions.
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
	if req.SessionToken != "" && r.byToken[req.SessionToken] != nil {
		r.mu.Unlock()
		return nil, errTokenInUse
	}
	r.pending++
	r.mu.Unlock()

	sess, src, err := openSession(r.cfg, name, backend, params, req)
	if err != nil {
		r.mu.Lock()
		r.pending--
		r.mu.Unlock()
		return nil, err
	}
	sess.reg = r

	// Registration re-checks everything the pair construction ran
	// outside the lock for: a drain or close, and a concurrent open that
	// pinned the same routing token and registered first. One live
	// session per token is what lets unregisterLocked drop the token
	// entry unconditionally.
	r.mu.Lock()
	r.pending--
	var refuse error
	switch {
	case r.draining:
		refuse = fmt.Errorf("%w: shard %d is draining", wire.ErrDraining, r.cfg.ShardID)
	case r.shut:
		refuse = errors.New("session: registry closed")
	case r.byToken[sess.hello.SessionToken] != nil:
		refuse = errTokenInUse
	}
	if refuse != nil {
		r.mu.Unlock()
		_ = sess.connA.Close()
		_ = sess.connB.Close()
		return nil, refuse
	}
	r.seq++
	id := wire.SessionID(r.cfg.ShardID, r.seq)
	sess.hello.Session, sess.hello.Shard = id, wire.ShardOf(id)
	// Start prefetching only once the session is registered.
	sess.pool = pool.NewDealt(src, pool.Config{
		Depth: depth, MaxWait: drawWait, MaxWaiters: drawWaiters,
		Obs: pool.NewObserver(r.reg, obs.Labels(
			"session", fmt.Sprint(id), "half", "sender", "params", name)),
		ObsReceiver: pool.NewObserver(r.reg, obs.Labels(
			"session", fmt.Sprint(id), "half", "receiver", "params", name)),
	})
	r.sessions[id] = sess
	r.byToken[sess.hello.SessionToken] = sess
	r.mSessions.Set(int64(len(r.sessions)))
	r.mOpened.Inc()
	r.mu.Unlock()
	return sess, nil
}

// AttachByToken joins a session by its fleet-wide routing token, the
// one way to join a session after HELLO. A token with no live session
// (expired, closed, or never issued here) fails with the typed
// wire.ErrLeaseExpired, so a client of a dead or restarted shard always
// gets an actionable rejection, never a hang or a generic miss.
func (r *Registry) AttachByToken(token, capability string) (*Session, wire.Role, error) {
	r.mu.Lock()
	sess := r.byToken[token]
	if sess == nil {
		r.mu.Unlock()
		return nil, "", fmt.Errorf("%w: no live session for that token on shard %d; open a new session", wire.ErrLeaseExpired, r.cfg.ShardID)
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
// the client may reconnect-with-token inside the window). An orphan's
// lease timer runs Expire when the window closes; a reconnect inside
// it clears the deadline, so that Expire passes the session over.
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
		lease := time.Duration(sess.hello.LeaseMS) * time.Millisecond
		sess.expiresAt = r.cfg.now().Add(lease)
		r.mu.Unlock()
		time.AfterFunc(lease, func() { r.Expire(r.cfg.now()) })
		return
	}
	r.unregisterLocked(sess, false)
	r.mu.Unlock()
	teardown(sess)
	r.dropSeries(sess)
}

// Expire tears down every orphan whose lease ran out as of now and
// returns how many. It is the one teardown path for orphans: each
// orphan's lease timer calls it, and tests call it directly with a
// pinned clock.
func (r *Registry) Expire(now time.Time) int {
	r.mu.Lock()
	var doomed []*Session
	for _, sess := range r.sessions {
		if sess.refs == 0 && !sess.expiresAt.IsZero() && !now.Before(sess.expiresAt) {
			doomed = append(doomed, sess)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].ID() < doomed[j].ID() })
	for _, sess := range doomed {
		r.unregisterLocked(sess, true)
	}
	r.mu.Unlock()
	for _, sess := range doomed {
		teardown(sess)
		r.dropSeries(sess)
	}
	return len(doomed)
}

// unregisterLocked removes a session from the maps and records the
// counters; the caller holds r.mu and must run teardown + dropSeries
// after unlocking (pool.Close waits on the worker).
func (r *Registry) unregisterLocked(sess *Session, expired bool) {
	delete(r.sessions, sess.ID())
	delete(r.byToken, sess.hello.SessionToken)
	r.mClosed.Inc()
	if expired {
		r.mExpired.Inc()
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
	key := "{" + obs.Labels("session", fmt.Sprint(sess.ID())) + ","
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

// Close tears down every session in id order, with no lease grace; a
// lease timer that fires afterwards finds nothing to expire. Safe to
// call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.shut {
		r.mu.Unlock()
		return
	}
	r.shut = true
	doomed := make([]*Session, 0, len(r.sessions))
	for _, sess := range r.sessions {
		doomed = append(doomed, sess)
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].ID() < doomed[j].ID() })
	for _, sess := range doomed {
		r.unregisterLocked(sess, false)
	}
	r.mu.Unlock()
	for _, sess := range doomed {
		teardown(sess)
		r.dropSeries(sess)
	}
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
		SessionsOpened:  r.mOpened.Value(),
		SessionsClosed:  r.mClosed.Value(),
		SessionsExpired: r.mExpired.Value(),
		DrySheds:        r.mDry.Value(),
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
	sort.Slice(entries, func(i, j int) bool { return entries[i].sess.ID() < entries[j].sess.ID() })
	for _, e := range entries {
		dump.PerSession = append(dump.PerSession, e.sess.stats(e.refs, e.expiresIn))
	}
	return dump
}

// mapDrawErr turns pool-layer failures into the wire protocol's typed
// sentinels: bounded-wait sheds become wire.ErrPoolDry, draws on a
// torn-down (expired or closed) session become wire.ErrLeaseExpired.
func (r *Registry) mapDrawErr(err error) error {
	switch {
	case errors.Is(err, pool.ErrDry):
		r.mDry.Inc()
		return fmt.Errorf("%w: %v", wire.ErrPoolDry, err)
	case errors.Is(err, pool.ErrClosed):
		return fmt.Errorf("%w: session torn down mid-draw", wire.ErrLeaseExpired)
	}
	return err
}
