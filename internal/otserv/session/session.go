// Package session is the backend-agnostic state layer of the OT
// dispenser: it owns every per-session fact — the fleet-wide routing
// token, the Δ-scoped prefetching pool, the lease that keeps a
// disconnected client's pool position alive, the per-half capability
// tokens and draw roles, the tenant, and the refcount — and none of
// the wire framing or connection handling. Transports (the otserv
// server, the fleet router's shards) attach and detach freely; the
// state they share lives here, shard-local, and every externally
// visible view of it (wire.SessionStats / wire.StatsDump) is a plain
// serializable value.
//
// Lifecycle: Open mints a session (refcount 1). Attach presents a
// capability token and bumps the refcount. Detach drops one reference;
// an explicit protocol CLOSE tears the session down at refcount zero,
// while a connection loss instead *orphans* it — the lease clock
// starts, and a client that re-Attaches with the session token inside
// the window resumes its draws byte-identically at the same pool
// position. The registry's janitor expires orphans whose lease ran
// out, leaving a tombstone so a late reconnect gets the typed
// wire.ErrLeaseExpired instead of a generic miss.
//
// Backpressure is two-layered and typed, never a deadlock: per-tenant
// token-bucket draw quotas admit or shed requests up front
// (wire.ErrQuotaExceeded), and admitted draws that outrun correlation
// generation shed on the pool's bounded wait (wire.ErrPoolDry).
package session

import (
	"crypto/subtle"
	"fmt"
	"sort"
	"strings"
	"time"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/obs"
	"ironman/internal/otserv/wire"
	"ironman/internal/parallel"
	"ironman/internal/pool"
	"ironman/internal/transport"
)

// Config tunes the session registry. The zero value is usable: Table 4
// parameter lookup, "2^20" default set, depth-2 prefetch, 64 sessions,
// 15 s leases. Three bounds are fixed rather than tuned: client lease
// requests clamp to 2 min, and a draw sheds with wire.ErrPoolDry after
// waiting 30 s or when 256 draws already wait on its session.
type Config struct {
	// Resolve maps a handshake params name to a parameter set; nil
	// selects ferret.ParamsByName (Table 4).
	Resolve func(name string) (ferret.Params, error)
	// DefaultParams is used when an open names no set. Default "2^20".
	DefaultParams string
	// Depth is the per-session prefetch depth (batches) when a session
	// requests none. Default 2.
	Depth int
	// MaxDepth caps client-requested prefetch depths. Default 8.
	MaxDepth int
	// MaxSessions bounds concurrently open sessions on this shard.
	// Default 64.
	MaxSessions int
	// Backends is the extension-backend allowlist this registry serves;
	// opens naming anything else are rejected with
	// wire.ErrBackendUnsupported before any session state is created.
	// nil serves every backend (extension.Names).
	Backends []string
	// Workers is the per-session Extend worker cap applied when an open
	// requests none, and the clamp for opens that request more. 0
	// selects runtime.GOMAXPROCS.
	Workers int
	// ShardID scopes this registry's session ids: ids are
	// wire.SessionID(ShardID, seq), so a fleet router can route a draw
	// from the id alone. 0 is the standalone dispenser.
	ShardID uint64
	// Lease is how long an orphaned session (refcount zero by
	// connection loss, not CLOSE) keeps its pool position before the
	// janitor expires it. Default 15 s.
	Lease time.Duration
	// Sweep is the janitor's lease-expiry scan interval. Default 500 ms.
	Sweep time.Duration
	// Quota shapes the per-tenant admission control; the zero value is
	// unlimited.
	Quota QuotaConfig
	// Registry receives the metrics: session lifecycle counters plus
	// one ironman_pool_* instrument set per session half. nil makes the
	// registry create its own.
	Registry *obs.Registry

	// now overrides the clock in tests (in-package only).
	now func() time.Time
}

const (
	// maxLease clamps client-requested leases.
	maxLease = 2 * time.Minute
	// drawWait bounds how long one draw may block on correlation
	// generation before shedding with wire.ErrPoolDry.
	drawWait = 30 * time.Second
	// drawWaiters bounds how many draws may be blocked on one session's
	// generation at once; excess sheds with wire.ErrPoolDry.
	drawWaiters = 256
)

func (c Config) withDefaults() Config {
	if c.Resolve == nil {
		c.Resolve = ferret.ParamsByName
	}
	if c.DefaultParams == "" {
		c.DefaultParams = "2^20"
	}
	if c.Depth <= 0 {
		c.Depth = 2
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if len(c.Backends) == 0 {
		c.Backends = extension.Names()
	} else {
		c.Backends = append([]string(nil), c.Backends...)
		sort.Strings(c.Backends)
	}
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	if c.Sweep <= 0 {
		c.Sweep = 500 * time.Millisecond
	}
	if c.ShardID > wire.MaxShardID {
		c.ShardID = wire.MaxShardID
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// backend resolves an open's backend request against the allowlist.
// Failures wrap wire.ErrBackendUnsupported and happen before any
// session state exists.
func (c Config) backend(name string) (extension.Backend, error) {
	if name == "" {
		name = extension.Default
	}
	for _, allowed := range c.Backends {
		if name == allowed {
			b, err := extension.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", wire.ErrBackendUnsupported, err)
			}
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (this server serves: %s)",
		wire.ErrBackendUnsupported, name, strings.Join(c.Backends, " "))
}

// workers resolves an open's Extend worker request against the
// registry cap: 0 inherits the cap, larger requests clamp to it.
func (c Config) workers(requested int) int {
	cap := parallel.Workers(c.Workers)
	if requested <= 0 || requested > cap {
		return cap
	}
	return requested
}

// OpenRequest shapes one session open (a transport's parsed HELLO).
type OpenRequest struct {
	Params    string
	Backend   string
	BinaryAES bool
	Depth     int
	Workers   int
	// Tenant names the accounting principal; "" is the anonymous
	// default tenant.
	Tenant string
	// Lease requests the orphan grace window (0 = registry default;
	// clamped to maxLease).
	Lease time.Duration
	// Token pins the fleet-wide routing token (the router injects the
	// consistent-hash key here); "" mints a fresh one.
	Token string
}

// Session is one dealt correlation stream and every fact about it that
// must survive a transport detach: identity, capabilities, lease,
// tenant, and the Δ-scoped prefetching pool. All mutable fields are
// guarded by the owning Registry's mutex.
type Session struct {
	id          uint64
	token       string // fleet routing token (routes, does not authorize)
	paramsName  string
	backendName string
	tenant      string
	batch       int
	lease       time.Duration
	delta       block.Block
	tokenS      string // attach capability for the sender half
	tokenR      string // attach capability for the receiver half
	pool        *pool.Dealt
	connA       transport.Conn // in-process pipe endpoints backing the
	connB       transport.Conn // session's dealt extension pair
	bucket      *bucket        // tenant quota admission
	reg         *Registry
	// obsS/obsR mirror the pool halves into the metrics registry; the
	// STATS protocol serves from these (pool.Stats agrees by the
	// Observer contract). labels is the shared per-session label set,
	// the teardown Drop predicate's match key.
	obsS, obsR *pool.Observer
	labels     string

	// Guarded by reg.mu.
	refs      int
	expiresAt time.Time // nonzero while orphaned (refs == 0 via detach)
}

// ID is the shard-scoped numeric session id.
func (s *Session) ID() uint64 { return s.id }

// Token is the fleet-wide routing token (consistent-hash key and
// reconnect handle; not a capability).
func (s *Session) Token() string { return s.token }

// Params names the session's parameter set.
func (s *Session) Params() string { return s.paramsName }

// Backend names the session's negotiated extension backend.
func (s *Session) Backend() string { return s.backendName }

// Batch is the per-Extend correlation yield.
func (s *Session) Batch() int { return s.batch }

// Lease is the session's orphan grace window.
func (s *Session) Lease() time.Duration { return s.lease }

// Delta is the session's correlation Δ (the creator's secret).
func (s *Session) Delta() block.Block { return s.delta }

// SenderToken is the attach capability for the sender half.
func (s *Session) SenderToken() string { return s.tokenS }

// ReceiverToken is the attach capability for the receiver half.
func (s *Session) ReceiverToken() string { return s.tokenR }

// role matches a presented capability token against the session's two
// halves in constant time; ok is false for anything else.
func (s *Session) role(capability string) (wire.Role, bool) {
	switch {
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.tokenS)) == 1:
		return wire.RoleSender, true
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.tokenR)) == 1:
		return wire.RoleReceiver, true
	}
	return "", false
}

// DrawSender draws n sender-half correlations (r0 blocks) through the
// tenant quota: shed requests fail typed (wire.ErrQuotaExceeded before
// any correlations move, wire.ErrPoolDry when generation is behind)
// and consume nothing.
func (s *Session) DrawSender(n int) ([]block.Block, error) {
	if err := s.admit(n); err != nil {
		return nil, err
	}
	z, err := s.pool.SenderCOTs(n)
	if err != nil {
		return nil, s.reg.mapDrawErr(err)
	}
	return z, nil
}

// DrawReceiver draws n receiver-half correlations (choice bits and r_b
// blocks); same quota and shed semantics as DrawSender.
func (s *Session) DrawReceiver(n int) ([]bool, []block.Block, error) {
	if err := s.admit(n); err != nil {
		return nil, nil, err
	}
	bits, blocks, err := s.pool.ReceiverCOTs(n)
	if err != nil {
		return nil, nil, s.reg.mapDrawErr(err)
	}
	return bits, blocks, nil
}

func (s *Session) admit(n int) error {
	if err := s.bucket.acquire(n); err != nil {
		s.reg.noteQuotaShed()
		return err
	}
	return nil
}

// Stats assembles the serializable per-session view from the
// registry-backed observers (NOT pool.Stats() — the Observer contract
// keeps the two views identical once draws quiesce, and serving from
// the registry guarantees STATS and the admin /metrics page can never
// disagree). refs/orphan state is passed in by the registry, which
// holds the lock.
func (s *Session) stats(refs int, expiresIn time.Duration) wire.SessionStats {
	st := wire.SessionStats{
		ID:       s.id,
		Shard:    wire.ShardOf(s.id),
		Params:   s.paramsName,
		Backend:  s.backendName,
		Tenant:   s.tenant,
		Refs:     refs,
		Sender:   halfStats(s.obsS.Snapshot()),
		Receiver: halfStats(s.obsR.Snapshot()),
	}
	if refs == 0 {
		st.Orphaned = true
		st.ExpiresInMS = expiresIn.Milliseconds()
	}
	return st
}

func halfStats(st pool.Stats) wire.HalfStats {
	return wire.HalfStats{
		Generated:    st.Generated,
		Dispensed:    st.Dispensed,
		Refills:      st.Refills,
		Draws:        st.Draws,
		BlockedDraws: st.BlockedDraws,
		BlockedNS:    st.BlockedTime.Nanoseconds(),
		Buffered:     st.Buffered,
	}
}

// openSession constructs the in-process dealt extension pair for a resolved
// open request and returns the unregistered session plus its refill
// source. Called without the registry lock (pair construction runs
// base OTs); the registry assigns the id, observers, and pool when it
// registers the session.
func openSession(cfg Config, name string, backend extension.Backend, params ferret.Params, req OpenRequest) (*Session, pool.DealtRefill, error) {
	delta := aesprg.NewLocal(block.Block{}, block.Block{}).Block()
	tokenS, tokenR := wire.NewToken(), wire.NewToken()
	routeToken := req.Token
	if routeToken == "" {
		routeToken = wire.NewToken()
	}

	eo := extension.Options{
		Workers:   cfg.workers(req.Workers),
		BinaryAES: req.BinaryAES,
	}
	connA, connB := transport.Pipe()
	es, er, err := backend.DealPair(connA, connB, delta, params, eo)
	if err != nil {
		_ = connA.Close()
		_ = connB.Close()
		return nil, nil, err
	}
	src := func() ([]block.Block, []bool, []block.Block, error) {
		return extension.ExtendLockstep(es, er)
	}

	lease := req.Lease
	if lease <= 0 {
		lease = cfg.Lease
	}
	if lease > maxLease {
		lease = maxLease
	}

	sess := &Session{
		token:       routeToken,
		paramsName:  name,
		backendName: backend.Name(),
		tenant:      req.Tenant,
		batch:       backend.Batch(params),
		lease:       lease,
		delta:       delta,
		tokenS:      tokenS,
		tokenR:      tokenR,
		connA:       connA,
		connB:       connB,
		refs:        1,
	}
	return sess, src, nil
}
