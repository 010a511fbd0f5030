package otserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ironman/internal/block"
	"ironman/internal/otserv/wire"
	"ironman/internal/transport"
)

// Client is one connection to a dispenser (a standalone daemon, one
// fleet shard, or the fleet router — the wire protocol is identical).
// It is safe for concurrent use; requests on one connection serialize
// (open one client per high-throughput consumer if that matters).
type Client struct {
	mu   sync.Mutex
	conn transport.Conn
}

// Dial connects to a dispenser daemon or fleet router.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(transport.NewTCP(nc)), nil
}

// NewClient wraps an established conn (any transport.Conn, so tests
// can run a dispenser over an in-process pipe).
func NewClient(conn transport.Conn) *Client {
	return &Client{conn: conn}
}

// Close disconnects. The server orphans this connection's sessions:
// their lease clocks start, and they are resumable with
// AttachToken until the lease expires. Use Session.Close for an
// immediate teardown.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// roundTrip sends one request and decodes the status byte. Typed
// failures (lease, dry, draining, version, backend) come back as
// errors matching the wire sentinels under errors.Is.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//ironman:allow(locknet) c.mu is the connection serializer: request/response framing needs exclusive conn access, and concurrent draws use separate clients
	if err := c.conn.Send(req); err != nil {
		return nil, err
	}
	//ironman:allow(locknet) same framing invariant as the Send above — the reply must be read before the next request goes out
	resp, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 {
		return nil, errors.New("otserv: empty response")
	}
	if resp[0] == wire.StatusOK {
		return resp[1:], nil
	}
	return nil, wire.FromStatus(resp[0], string(resp[1:]))
}

func (c *Client) roundTripJSON(op byte, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := c.roundTrip(append([]byte{op}, body...))
	if err != nil {
		return err
	}
	return json.Unmarshal(out, resp)
}

// SessionConfig shapes a NewSession handshake.
type SessionConfig struct {
	// Params names a parameter set known to the server ("" = server
	// default).
	Params string
	// Backend names the extension backend the session should run on
	// ("" = server default). Unsupported names fail NewSession with an
	// ErrBackendUnsupported-wrapping error before the server creates
	// any session state.
	Backend string
	// Depth requests a prefetch depth in batches (0 = server default;
	// the server caps it).
	Depth int
	// Workers requests an Extend worker-goroutine cap for the session's
	// refills (0 = server default; the server clamps to its own cap).
	Workers int
	// Tenant is a free-form label the server reports back in the
	// session's STATS; nothing is counted or limited per tenant.
	Tenant string
	// Lease requests how long the session survives a dropped
	// connection before the server reclaims it (0 = server default;
	// the server clamps to its own cap).
	Lease time.Duration
}

// Session is a handle on one dispenser session.
type Session struct {
	c        *Client
	id       uint64
	token    string // fleet routing token (reconnect handle)
	tokenS   string
	tokenR   string
	delta    block.Block
	hasDelta bool
}

// NewSession opens a fresh session (fresh Δ, dedicated pool) on the
// dispenser. The creator learns Δ, holds both draw roles, and
// receives the two attach tokens; hand one token to the consumer of
// each half (a party holding both tokens can reconstruct Δ).
func (c *Client) NewSession(cfg SessionConfig) (*Session, error) {
	req := wire.HelloReq{
		Params:  cfg.Params,
		Backend: cfg.Backend,
		Depth:   cfg.Depth,
		Workers: cfg.Workers,
		Tenant:  cfg.Tenant,
		LeaseMS: cfg.Lease.Milliseconds(),
	}
	// HELLO carries the v2 framing (version byte before the JSON), so
	// it cannot go through roundTripJSON.
	body, err := wire.HelloBody(req)
	if err != nil {
		return nil, err
	}
	out, err := c.roundTrip(append([]byte{wire.OpHello}, body...))
	if err != nil {
		return nil, err
	}
	var resp wire.HelloResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, err
	}
	return &Session{
		c:        c,
		id:       resp.Session,
		token:    resp.SessionToken,
		tokenS:   resp.SenderToken,
		tokenR:   resp.ReceiverToken,
		delta:    block.Block{Lo: resp.DeltaLo, Hi: resp.DeltaHi},
		hasDelta: true,
	}, nil
}

// AttachToken joins a session by its fleet-wide routing token — the
// reconnect path. A client whose connection died re-dials (the router
// lands it on the owning shard), presents the session token plus its
// capability token, and resumes drawing at the exact pool position it
// left, as long as the lease has not expired (then: wire.ErrLeaseExpired).
func (c *Client) AttachToken(sessionToken, token string) (*Session, error) {
	var resp wire.AttachResp
	if err := c.roundTripJSON(wire.OpAttach, wire.AttachReq{SessionToken: sessionToken, Token: token}, &resp); err != nil {
		return nil, err
	}
	return &Session{c: c, id: resp.Session, token: sessionToken}, nil
}

// ServerStats fetches the server-wide counters (per-shard when
// connected to a shard; merged when connected to the router).
func (c *Client) ServerStats() (*StatsDump, error) {
	out, err := c.roundTrip(wire.SessionReq(wire.OpStats, 0))
	if err != nil {
		return nil, err
	}
	var dump StatsDump
	if err := json.Unmarshal(out, &dump); err != nil {
		return nil, err
	}
	return &dump, nil
}

// ID is the server-assigned session id (in fleet mode the shard id is
// in the top bits, wire.ShardOf).
func (s *Session) ID() uint64 { return s.id }

// Token is the session's fleet-wide routing token: the handle for
// AttachToken reconnects. It routes but does not authorize.
func (s *Session) Token() string { return s.token }

// Delta returns the session's global correlation. ok is false on
// attached handles, which are not told Δ.
func (s *Session) Delta() (delta block.Block, ok bool) { return s.delta, s.hasDelta }

// SenderToken is the attach capability for the sender half (empty on
// attached handles).
func (s *Session) SenderToken() string { return s.tokenS }

// ReceiverToken is the attach capability for the receiver half (empty
// on attached handles).
func (s *Session) ReceiverToken() string { return s.tokenR }

// Stats fetches the session's pool counters.
func (s *Session) Stats() (*SessionStats, error) {
	out, err := s.c.roundTrip(wire.SessionReq(wire.OpStats, s.id))
	if err != nil {
		return nil, err
	}
	var st SessionStats
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Close drops this handle's reference; the server tears the session
// down once no client holds it (immediately — an explicit CLOSE waives
// the lease window).
func (s *Session) Close() error {
	_, err := s.c.roundTrip(wire.SessionReq(wire.OpClose, s.id))
	return err
}

// SenderCOTs draws n sender-half correlations (r0 blocks; r1 = r0 ⊕ Δ
// implied). Draws larger than the protocol's single-response cap are
// chunked transparently.
func (s *Session) SenderCOTs(n int) ([]block.Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("otserv: negative draw %d", n)
	}
	out := make([]block.Block, 0, n)
	for n > 0 {
		chunk := n
		if chunk > MaxDraw {
			chunk = MaxDraw
		}
		body, err := s.c.roundTrip(wire.DrawReq(wire.OpDrawS, s.id, chunk))
		if err != nil {
			return nil, err
		}
		if len(body) != chunk*block.Size {
			return nil, fmt.Errorf("otserv: DRAW_S response is %d bytes, want %d", len(body), chunk*block.Size)
		}
		out = append(out, block.SliceFromBytes(body)...)
		n -= chunk
	}
	return out, nil
}

// ReceiverCOTs draws n receiver-half correlations: choice bits and the
// matching r_b blocks.
func (s *Session) ReceiverCOTs(n int) ([]bool, []block.Block, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("otserv: negative draw %d", n)
	}
	bits := make([]bool, 0, n)
	blocks := make([]block.Block, 0, n)
	for n > 0 {
		chunk := n
		if chunk > MaxDraw {
			chunk = MaxDraw
		}
		body, err := s.c.roundTrip(wire.DrawReq(wire.OpDrawR, s.id, chunk))
		if err != nil {
			return nil, nil, err
		}
		bs, blks, err := wire.ParseDrawRResp(body, chunk)
		if err != nil {
			return nil, nil, err
		}
		bits = append(bits, bs...)
		blocks = append(blocks, blks...)
		n -= chunk
	}
	return bits, blocks, nil
}
