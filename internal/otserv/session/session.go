// Package session is the backend-agnostic state layer of the OT
// dispenser: it owns every per-session fact — the fleet-wide routing
// token, the Δ-scoped prefetching pool, the lease that keeps a
// disconnected client's pool position alive, the per-half capability
// tokens and draw roles, the tenant label, and the refcount — and none
// of the wire framing or connection handling. Transports (the otserv
// server, the fleet router's shards) attach and detach freely; the
// state they share lives here, shard-local, and every externally
// visible view of it (wire.SessionStats / wire.StatsDump) is a plain
// serializable value.
//
// Lifecycle: Open mints a session (refcount 1). AttachByToken names
// the session by its routing token, presents a capability token and
// bumps the refcount. Detach drops one reference; an explicit protocol
// CLOSE tears the session down at refcount zero, while a connection
// loss instead *orphans* it — its lease timer starts, and a client
// that re-attaches with the session token inside the window resumes
// its draws byte-identically at the same pool position. When the
// timer fires, Expire tears the orphan down; from then on its token
// gets the typed wire.ErrLeaseExpired, the same answer as a token the
// shard never issued.
//
// Backpressure is typed, never a deadlock: a draw that outruns
// correlation generation sheds on the pool's bounded wait
// (wire.ErrPoolDry). The tenant is a label only: STATS reports it, and
// nothing is counted or limited per tenant.
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
	// connection loss, not CLOSE) keeps its pool position before its
	// lease timer expires it. Default 15 s.
	Lease time.Duration

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

// OpenRequest shapes one session open: a transport's parsed HELLO.
// Tenant is a label STATS reports back; LeaseMS 0 selects the
// registry's lease and larger requests clamp to maxLease; a non-empty
// SessionToken pins the fleet-wide routing token (the router injects
// its consistent-hash key there) instead of minting one.
type OpenRequest = wire.HelloReq

// Session is one dealt correlation stream and every fact about it that
// must survive a transport detach: identity, capabilities, lease,
// tenant, and the Δ-scoped prefetching pool. All mutable fields are
// guarded by the owning Registry's mutex.
type Session struct {
	// hello is everything the session tells its creator — id, shard,
	// params, backend, batch, Δ, routing token, lease and the two
	// attach capabilities — stored once, in its wire form. The id and
	// shard are stamped at registration; nothing changes after Open.
	hello  wire.HelloResp
	tenant string
	pool   *pool.Dealt
	connA  transport.Conn // in-process pipe endpoints backing the
	connB  transport.Conn // session's dealt extension pair
	reg    *Registry

	// Guarded by reg.mu.
	refs      int
	expiresAt time.Time // nonzero while orphaned (refs == 0 via detach)
}

// ID is the shard-scoped numeric session id.
func (s *Session) ID() uint64 { return s.hello.Session }

// Hello is the HELLO response describing the session to its creator.
func (s *Session) Hello() wire.HelloResp { return s.hello }

// role matches a presented capability token against the session's two
// halves in constant time; ok is false for anything else.
func (s *Session) role(capability string) (wire.Role, bool) {
	switch {
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.hello.SenderToken)) == 1:
		return wire.RoleSender, true
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.hello.ReceiverToken)) == 1:
		return wire.RoleReceiver, true
	}
	return "", false
}

// DrawSender draws n sender-half correlations (r0 blocks). A draw
// shed because generation is behind fails with wire.ErrPoolDry and
// consumes nothing.
func (s *Session) DrawSender(n int) ([]block.Block, error) {
	z, err := s.pool.SenderCOTs(n)
	if err != nil {
		return nil, s.reg.mapDrawErr(err)
	}
	return z, nil
}

// DrawReceiver draws n receiver-half correlations (choice bits and r_b
// blocks); same shed semantics as DrawSender.
func (s *Session) DrawReceiver(n int) ([]bool, []block.Block, error) {
	bits, blocks, err := s.pool.ReceiverCOTs(n)
	if err != nil {
		return nil, nil, s.reg.mapDrawErr(err)
	}
	return bits, blocks, nil
}

// stats assembles the serializable per-session view. The pool halves'
// Stats read the very instruments the admin /metrics page serves, so
// STATS and a scrape cannot disagree. refs/orphan state is passed in
// by the registry, which holds the lock.
func (s *Session) stats(refs int, expiresIn time.Duration) wire.SessionStats {
	st := wire.SessionStats{
		ID:       s.hello.Session,
		Shard:    s.hello.Shard,
		Params:   s.hello.Params,
		Backend:  s.hello.Backend,
		Tenant:   s.tenant,
		Refs:     refs,
		Sender:   halfStats(s.pool.SenderHalf().Stats()),
		Receiver: halfStats(s.pool.ReceiverHalf().Stats()),
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
// base OTs); the registry assigns the id and pool when it registers
// the session.
func openSession(cfg Config, name string, backend extension.Backend, params ferret.Params, req OpenRequest) (*Session, pool.DealtRefill, error) {
	delta := aesprg.NewLocal(block.Block{}, block.Block{}).Block()
	routeToken := req.SessionToken
	if routeToken == "" {
		routeToken = wire.NewToken()
	}

	eo := extension.Options{Workers: cfg.workers(req.Workers)}
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

	lease := time.Duration(req.LeaseMS) * time.Millisecond
	if lease <= 0 {
		lease = cfg.Lease
	}
	if lease > maxLease {
		lease = maxLease
	}

	sess := &Session{
		hello: wire.HelloResp{
			Params:        name,
			Backend:       backend.Name(),
			Batch:         backend.Batch(params),
			DeltaLo:       delta.Lo,
			DeltaHi:       delta.Hi,
			SessionToken:  routeToken,
			LeaseMS:       lease.Milliseconds(),
			SenderToken:   wire.NewToken(),
			ReceiverToken: wire.NewToken(),
		},
		tenant: req.Tenant,
		connA:  connA,
		connB:  connB,
		refs:   1,
	}
	return sess, src, nil
}
