// Package otserv is the OT dispenser's transport layer: it frames the
// wire protocol (package wire) over transport.Conn connections and
// delegates everything stateful — sessions, leases, quotas, pools — to
// the session layer (package session). The split is load-bearing for
// fleet mode: a shard is exactly this server around a shard-scoped
// session.Registry, and the router (package router) proxies the same
// wire protocol across many shards, on the same accept and request
// Loop, without understanding sessions at all.
package otserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"ironman/internal/block"
	"ironman/internal/obs"
	"ironman/internal/otserv/session"
	"ironman/internal/otserv/wire"
)

// Config tunes the dispenser; it is the session layer's Config (the
// transport layer adds no knobs of its own).
type Config = session.Config

// Aliases for the wire protocol's client-visible types, so dispenser
// consumers import only otserv.
type (
	// SessionStats is one session's STATS view.
	SessionStats = wire.SessionStats
	// StatsDump is the shard-wide STATS view.
	StatsDump = wire.StatsDump
)

const (
	// MaxDraw is the per-request draw cap (clients chunk above it).
	MaxDraw = wire.MaxDraw
)

// attachment is one conn's view of a session: which halves it may
// draw and how many references (HELLO/ATTACH minus CLOSE) it holds.
type attachment struct {
	sess     *session.Session
	sender   bool
	receiver bool
	count    int
}

// Server is the dispenser's transport layer: the shared accept and
// request Loop, with all state in the session registry.
type Server struct {
	sessions *session.Registry
	reg      *obs.Registry
	loop     Loop
}

// NewServer builds a dispenser (one fleet shard, or the whole daemon
// in standalone mode) with the given config.
func NewServer(cfg Config) *Server {
	reg := session.NewRegistry(cfg)
	return &Server{sessions: reg, reg: reg.Obs()}
}

// Sessions exposes the session layer (tests and embedders drive leases
// and drain directly; the wire protocol covers everything clients need).
func (s *Server) Sessions() *session.Registry { return s.sessions }

// Drain flips the server into lame-duck mode: HELLOs are refused with
// ErrDraining while existing sessions keep serving to CLOSE or lease
// expiry. The router takes a draining shard out of placement and
// re-HELLOs elsewhere.
func (s *Server) Drain() { s.sessions.Drain() }

// Serve accepts dispenser clients on ln until the listener fails or
// the server is closed. It blocks; run it on its own goroutine when
// the caller needs to keep working.
func (s *Server) Serve(ln net.Listener) error { return s.loop.Serve(ln, s.open) }

// Close shuts the server down immediately: stops accepting,
// disconnects clients, and tears down every session (no lease grace).
func (s *Server) Close() error {
	s.loop.Close()
	// Registry close tears down every remaining session in id order
	// (conn teardown orphans rather than closes, so "remaining" is
	// usually all of them).
	s.sessions.Close()
	return nil
}

// Shutdown drains the server for a clean exit (the SIGTERM path):
// stop accepting, refuse new sessions, give in-flight connections up
// to timeout to finish their request loops, then disconnect whoever
// remains and tear down every session in id order. The session
// registry retires all metric series as part of teardown, so the obs
// registry is left holding only process-lifetime counters.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.loop.shutdown(timeout, s.sessions.Drain)
	s.sessions.Close()
	return nil
}

// open starts one client connection's state. Draws run outside any
// server lock, so a slow draw on one conn never stalls other clients.
// A dying connection orphans its sessions (the lease clock starts)
// instead of closing them — reconnect-with-token resumes them; only an
// explicit CLOSE (or lease expiry) tears down.
func (s *Server) open() (handle func([]byte) []byte, done func()) {
	owned := make(map[uint64]*attachment)
	handle = func(msg []byte) []byte { return s.dispatch(msg, owned) }
	done = func() {
		ids := make([]uint64, 0, len(owned))
		for id := range owned {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			for i := 0; i < owned[id].count; i++ {
				s.sessions.Detach(id, true)
			}
		}
	}
	return handle, done
}

func respJSON(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		return wire.ErrResponse(err)
	}
	return wire.OKResponse(body)
}

func (s *Server) dispatch(msg []byte, owned map[uint64]*attachment) []byte {
	if len(msg) < 1 {
		return wire.ErrResponse(errors.New("otserv: empty request"))
	}
	op, body := msg[0], msg[1:]
	switch op {
	case wire.OpHello:
		return s.handleHello(body, owned)
	case wire.OpAttach:
		return s.handleAttach(body, owned)
	case wire.OpDrawS, wire.OpDrawR:
		return s.handleDraw(op, body, owned)
	case wire.OpStats:
		return s.handleStats(body, owned)
	case wire.OpClose:
		id, err := wire.ParseSession(body)
		if err != nil {
			return wire.ErrResponse(err)
		}
		at, ok := owned[id]
		if !ok {
			return wire.ErrResponse(fmt.Errorf("otserv: session %d not attached on this conn", id))
		}
		at.count--
		if at.count <= 0 {
			delete(owned, id)
		}
		s.sessions.Detach(id, false)
		return wire.OKResponse(nil)
	default:
		return wire.ErrResponse(fmt.Errorf("otserv: unknown op 0x%02x", op))
	}
}

func (s *Server) handleHello(body []byte, owned map[uint64]*attachment) []byte {
	req, err := wire.ParseHello(body)
	if err != nil {
		return wire.ErrResponse(err)
	}
	sess, err := s.sessions.Open(session.OpenRequest{
		Params:    req.Params,
		Backend:   req.Backend,
		BinaryAES: req.BinaryAES,
		Depth:     req.Depth,
		Workers:   req.Workers,
		Tenant:    req.Tenant,
		Lease:     time.Duration(req.LeaseMS) * time.Millisecond,
		Token:     req.SessionToken,
	})
	if err != nil {
		return wire.ErrResponse(err)
	}
	owned[sess.ID()] = &attachment{sess: sess, sender: true, receiver: true, count: 1}
	delta := sess.Delta()
	return respJSON(wire.HelloResp{
		Session:       sess.ID(),
		Shard:         wire.ShardOf(sess.ID()),
		Params:        sess.Params(),
		Backend:       sess.Backend(),
		Batch:         sess.Batch(),
		DeltaLo:       delta.Lo,
		DeltaHi:       delta.Hi,
		SessionToken:  sess.Token(),
		LeaseMS:       sess.Lease().Milliseconds(),
		SenderToken:   sess.SenderToken(),
		ReceiverToken: sess.ReceiverToken(),
	})
}

func (s *Server) handleAttach(body []byte, owned map[uint64]*attachment) []byte {
	var req wire.AttachReq
	if err := json.Unmarshal(body, &req); err != nil {
		return wire.ErrResponse(fmt.Errorf("otserv: bad ATTACH: %w", err))
	}
	var (
		sess *session.Session
		role wire.Role
		err  error
	)
	if req.SessionToken != "" {
		// The reconnect path: the routing token names the session
		// fleet-wide, so a client that lost its conn (and maybe its
		// numeric id) can resume inside the lease window.
		sess, role, err = s.sessions.AttachByToken(req.SessionToken, req.Token)
	} else {
		sess, role, err = s.sessions.AttachByID(req.Session, req.Token)
	}
	if err != nil {
		return wire.ErrResponse(err)
	}
	at := owned[sess.ID()]
	if at == nil {
		at = &attachment{sess: sess}
		owned[sess.ID()] = at
	}
	at.count++
	at.sender = at.sender || role == wire.RoleSender
	at.receiver = at.receiver || role == wire.RoleReceiver
	return respJSON(wire.AttachResp{
		Session: sess.ID(),
		Shard:   wire.ShardOf(sess.ID()),
		Params:  sess.Params(),
		Backend: sess.Backend(),
		Batch:   sess.Batch(),
		Role:    role,
		LeaseMS: sess.Lease().Milliseconds(),
	})
}

func (s *Server) handleDraw(op byte, body []byte, owned map[uint64]*attachment) []byte {
	id, n, err := wire.ParseSessionN(body)
	if err != nil {
		return wire.ErrResponse(err)
	}
	at, ok := owned[id]
	if !ok {
		return wire.ErrResponse(fmt.Errorf("otserv: session %d not attached on this conn", id))
	}
	if n < 0 || n > wire.MaxDraw {
		return wire.ErrResponse(fmt.Errorf("otserv: draw of %d outside [0, %d]", n, wire.MaxDraw))
	}
	if op == wire.OpDrawS {
		if !at.sender {
			return wire.ErrResponse(fmt.Errorf("otserv: attachment to session %d has no sender role", id))
		}
		z, err := at.sess.DrawSender(n)
		if err != nil {
			return wire.ErrResponse(err)
		}
		return wire.OKResponse(block.ToBytes(z))
	}
	if !at.receiver {
		return wire.ErrResponse(fmt.Errorf("otserv: attachment to session %d has no receiver role", id))
	}
	bits, blocks, err := at.sess.DrawReceiver(n)
	if err != nil {
		return wire.ErrResponse(err)
	}
	return wire.OKResponse(wire.DrawRResp(bits, blocks))
}

// handleStats serves counters. Per-session stats require an
// attachment on this conn, so an unprivileged peer cannot probe
// individual session liveness; the server-wide dump is deliberately
// public operator telemetry (ids and counters are not capabilities —
// attach tokens are).
func (s *Server) handleStats(body []byte, owned map[uint64]*attachment) []byte {
	id, err := wire.ParseSession(body)
	if err != nil {
		return wire.ErrResponse(err)
	}
	if id != 0 {
		if _, ok := owned[id]; !ok {
			return wire.ErrResponse(fmt.Errorf("otserv: session %d not attached on this conn", id))
		}
		st, err := s.sessions.Stats(id)
		if err != nil {
			return wire.ErrResponse(err)
		}
		return respJSON(st)
	}
	return respJSON(s.sessions.Dump())
}
