package router

import (
	"encoding/json"
	"fmt"
	"net"

	"ironman/internal/otserv/wire"
	"ironman/internal/transport"
)

// proxyConn is the per-client proxy state: one upstream connection per
// shard the client has touched, dialed lazily. When the client drops,
// its upstreams close with it, so the shards orphan the client's
// sessions into their lease windows — the router itself never tracks
// which sessions a client owns.
type proxyConn struct {
	r         *Router
	upstreams map[string]transport.Conn
}

// open starts one client connection's proxy state for the shared Loop.
func (r *Router) open() (handle func([]byte) []byte, done func()) {
	pc := &proxyConn{r: r, upstreams: make(map[string]transport.Conn)}
	return pc.route, pc.closeUpstreams
}

func (pc *proxyConn) closeUpstreams() {
	var ups []transport.Conn
	for _, up := range pc.upstreams {
		ups = append(ups, up)
	}
	for _, up := range ups {
		_ = up.Close()
	}
}

// upstream returns the cached connection to addr, dialing on first
// use.
func (pc *proxyConn) upstream(addr string) (transport.Conn, error) {
	if up, ok := pc.upstreams[addr]; ok {
		return up, nil
	}
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	up := transport.NewTCP(nc)
	pc.upstreams[addr] = up
	return up, nil
}

// roundTrip forwards msg to the shard at addr and returns its
// response. Any IO failure poisons the cached upstream (a fresh dial
// happens on the next attempt) and marks the shard dead.
func (pc *proxyConn) roundTrip(addr string, msg []byte) ([]byte, error) {
	up, err := pc.upstream(addr)
	if err != nil {
		pc.r.markDead(addr)
		return nil, err
	}
	if err := up.Send(msg); err != nil {
		pc.dropUpstream(addr)
		return nil, err
	}
	resp, err := up.Recv()
	if err != nil {
		pc.dropUpstream(addr)
		return nil, err
	}
	return resp, nil
}

func (pc *proxyConn) dropUpstream(addr string) {
	if up, ok := pc.upstreams[addr]; ok {
		_ = up.Close()
		delete(pc.upstreams, addr)
	}
	pc.r.markDead(addr)
}

// route dispatches one framed request. Every path returns a framed
// response — the router never leaves a client request unanswered, so
// a killed shard surfaces as a typed error, not a hang.
func (pc *proxyConn) route(msg []byte) []byte {
	if len(msg) < 1 {
		return wire.ErrResponse(fmt.Errorf("router: empty request"))
	}
	op, body := msg[0], msg[1:]
	switch op {
	case wire.OpHello:
		return pc.routeHello(body)
	case wire.OpAttach:
		return pc.routeAttach(msg, body)
	case wire.OpStats:
		id, err := wire.ParseSession(body)
		if err != nil {
			return wire.ErrResponse(err)
		}
		if id == 0 {
			return pc.mergedStats()
		}
		return pc.routeByID(id, msg)
	case wire.OpDrawS, wire.OpDrawR:
		id, _, err := wire.ParseSessionN(body)
		if err != nil {
			return wire.ErrResponse(err)
		}
		return pc.routeByID(id, msg)
	case wire.OpClose:
		id, err := wire.ParseSession(body)
		if err != nil {
			return wire.ErrResponse(err)
		}
		return pc.routeByID(id, msg)
	default:
		return wire.ErrResponse(fmt.Errorf("router: unknown op 0x%02x", op))
	}
}

// routeHello places a new session: hash the routing token onto the
// ring, walk the candidate sequence past draining or dead shards, and
// cache the winning placement for reconnects.
func (pc *proxyConn) routeHello(body []byte) []byte {
	req, err := wire.ParseHello(body)
	if err != nil {
		return wire.ErrResponse(err)
	}
	if req.SessionToken == "" {
		req.SessionToken = wire.NewToken()
	}
	frame, err := wire.HelloBody(req)
	if err != nil {
		return wire.ErrResponse(err)
	}
	fwd := append([]byte{wire.OpHello}, frame...)
	first := true
	for _, addr := range pc.r.placement(req.SessionToken) {
		if !first {
			pc.r.mRetries.Inc()
		}
		first = false
		resp, err := pc.roundTrip(addr, fwd)
		if err != nil {
			continue
		}
		if len(resp) >= 1 && resp[0] == wire.StatusErrDraining {
			// The shard drained between our last probe and now; keep it
			// routable for its existing leases but stop placing there.
			pc.r.setState(addr, shardDraining, 0, false)
			continue
		}
		if len(resp) >= 1 && resp[0] == wire.StatusOK {
			pc.r.recordToken(req.SessionToken, addr)
			pc.r.mPlacements.Inc()
		}
		return resp
	}
	return noShards()
}

// routeAttach forwards an ATTACH. With a session token it is a
// reconnect: try the cached placement, then every routable shard —
// the session lives on exactly one, and a restarted shard answers
// with a typed lease error rather than silence. Without a token it is
// a same-fleet second party joining by id.
func (pc *proxyConn) routeAttach(msg, body []byte) []byte {
	var req wire.AttachReq
	if err := json.Unmarshal(body, &req); err != nil {
		return wire.ErrResponse(fmt.Errorf("router: bad attach: %w", err))
	}
	if req.SessionToken == "" {
		return pc.routeByID(req.Session, msg)
	}
	var lastLease []byte
	for _, addr := range pc.r.reattachCandidates(req.SessionToken) {
		resp, err := pc.roundTrip(addr, msg)
		if err != nil {
			continue
		}
		if len(resp) >= 1 && resp[0] == wire.StatusErrLease {
			lastLease = resp
			continue
		}
		if len(resp) >= 1 && resp[0] == wire.StatusOK {
			pc.r.recordToken(req.SessionToken, addr)
		}
		return resp
	}
	pc.r.dropToken(req.SessionToken)
	pc.r.mLeaseErrs.Inc()
	if lastLease != nil {
		return lastLease
	}
	return wire.ErrResponse(fmt.Errorf("%w: no shard holds that session", wire.ErrLeaseExpired))
}

// routeByID forwards an id-scoped request to the shard encoded in the
// id's high bits. A dead or unknown shard yields a typed lease error
// immediately.
func (pc *proxyConn) routeByID(id uint64, msg []byte) []byte {
	shardID := wire.ShardOf(id)
	addr, ok := pc.r.addrForShard(shardID)
	if !ok {
		pc.r.mLeaseErrs.Inc()
		return wire.ErrResponse(fmt.Errorf("%w: shard %d is gone", wire.ErrLeaseExpired, shardID))
	}
	resp, err := pc.roundTrip(addr, msg)
	if err != nil {
		pc.r.mLeaseErrs.Inc()
		return wire.ErrResponse(fmt.Errorf("%w: shard %d went away mid-request", wire.ErrLeaseExpired, shardID))
	}
	return resp
}

// mergedStats fans a STATS(0) out to every routable shard and merges
// the dumps into one fleet-wide view (Shard 0, Backends from the
// first responder, counters summed, sessions concatenated).
func (pc *proxyConn) mergedStats() []byte {
	var merged wire.StatsDump
	gotAny := false
	for _, view := range pc.r.Shards() {
		if view.State == "dead" {
			continue
		}
		resp, err := pc.roundTrip(view.Addr, wire.SessionReq(wire.OpStats, 0))
		if err != nil {
			continue
		}
		if len(resp) < 1 || resp[0] != wire.StatusOK {
			continue
		}
		var dump wire.StatsDump
		if err := json.Unmarshal(resp[1:], &dump); err != nil {
			continue
		}
		if !gotAny {
			merged.Backends = dump.Backends
			gotAny = true
		}
		merged.Sessions += dump.Sessions
		merged.SessionsOpened += dump.SessionsOpened
		merged.SessionsClosed += dump.SessionsClosed
		merged.SessionsExpired += dump.SessionsExpired
		merged.QuotaSheds += dump.QuotaSheds
		merged.DrySheds += dump.DrySheds
		merged.MaxSessions += dump.MaxSessions
		merged.PerSession = append(merged.PerSession, dump.PerSession...)
	}
	if !gotAny {
		return noShards()
	}
	body, err := json.Marshal(merged)
	if err != nil {
		return wire.ErrResponse(err)
	}
	return wire.OKResponse(body)
}
