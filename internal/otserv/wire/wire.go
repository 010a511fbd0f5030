// Package wire is the OT-dispenser protocol contract: the framing of
// the HELLO/ATTACH/DRAW/STATS/CLOSE request/response cycle, the typed
// errors a dispenser may answer with, and the shard-scoped session-id
// arithmetic the fleet router relies on. It holds no session state and
// opens no connections — internal/otserv/session owns state,
// internal/otserv carries frames between the two, and
// internal/otserv/router forwards frames it only partially parses.
//
// Wire protocol (one framed transport message per request/response):
//
//	request  = op:1 body
//	response = status:1 body        status 0 = ok, body per op
//	                                status 1 = error string
//	                                status 2 = version mismatch
//	                                status 3 = backend unsupported
//	                                status 4 = quota exceeded (reserved)
//	                                status 5 = session lease expired/lost
//	                                status 6 = pool dry (generation behind)
//	                                status 7 = draining (no new sessions)
//
//	HELLO  op=1 body=ver:1 JSON {v, HelloReq} -> JSON HelloResp (Δ + tokens)
//	ATTACH op=2 body=JSON AttachReq  -> JSON AttachResp (role, no Δ);
//	                                    AttachReq names the session by
//	                                    its routing token only
//	DRAW_S op=3 session:8 n:4        -> n*16 bytes of r0 blocks
//	DRAW_R op=4 session:8 n:4        -> ceil(n/8) choice-bit bytes
//	                                    followed by n*16 r_b blocks
//	STATS  op=5 session:8 (0=server) -> JSON StatsDump / SessionStats
//	CLOSE  op=6 session:8            -> empty (drops one attachment)
//
// The HELLO body leads with one protocol-version byte (ProtoVersion,
// currently 2) so version negotiation happens before the server parses
// anything else. The legacy v1 bare-JSON HELLO body (no version byte)
// was accepted for one release window after v2 landed; that window is
// over and v1 HELLOs are now rejected with ErrVersionMismatch.
//
// Session identity is two-level. The numeric session id names a
// session on one shard, and its top bits carry the shard id
// (ShardOf/SessionID), so a fleet router can route a DRAW from the id
// alone. The session token — a fleet-unique random string minted at
// HELLO (by the router in fleet mode, by the shard standalone) — names
// the session across the fleet: it is the router's consistent-hash key
// and the handle a disconnected client re-ATTACHes with. The session
// token routes; only the two capability tokens (sender/receiver)
// authorize.
//
// All integers are little-endian.
package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"ironman/internal/block"
	"ironman/internal/transport"
)

// ProtoVersion is bumped on incompatible wire changes. Version 2 added
// the HELLO leading version byte and backend negotiation; the fleet
// fields (tenant, lease, session token) are additive within v2.
const ProtoVersion = 2

// Request opcodes.
const (
	OpHello  byte = 0x01
	OpAttach byte = 0x02
	OpDrawS  byte = 0x03
	OpDrawR  byte = 0x04
	OpStats  byte = 0x05
	OpClose  byte = 0x06
)

// Response status bytes. Every non-OK status except StatusErr maps to
// one typed sentinel error so both sides can match with errors.Is;
// StatusOf and FromStatus are the two directions of that mapping.
const (
	StatusOK byte = 0
	// StatusErr carries a free-form error string.
	StatusErr byte = 1
	// StatusErrVersion rejects a HELLO whose protocol version the
	// server does not speak.
	StatusErrVersion byte = 2
	// StatusErrBackend rejects a HELLO naming an extension backend the
	// server does not serve. Sent before any session state exists.
	StatusErrBackend byte = 3
	// StatusErrQuota keeps its v2 slot for a quota shed. No server in
	// this tree sends it; clients still map it to ErrQuotaExceeded.
	StatusErrQuota byte = 4
	// StatusErrLease rejects an operation on a session whose lease
	// expired (or whose shard is gone, in fleet mode).
	StatusErrLease byte = 5
	// StatusErrDry sheds a draw the session's pool cannot satisfy
	// within its bounded wait — generation is behind demand.
	StatusErrDry byte = 6
	// StatusErrDraining rejects a HELLO on a draining server: existing
	// leases are served to expiry, new sessions go elsewhere.
	StatusErrDraining byte = 7
)

// ErrVersionMismatch is the typed rejection for a HELLO whose protocol
// version the peer does not speak; match with errors.Is on both the
// server's handshake path and the client's NewSession error.
var ErrVersionMismatch = errors.New("otserv: protocol version mismatch")

// ErrBackendUnsupported is the typed rejection for a HELLO naming an
// extension backend the server does not serve. The server refuses
// before creating any session state, so no draw traffic ever flows for
// a misnegotiated backend; match with errors.Is.
var ErrBackendUnsupported = errors.New("otserv: backend unsupported")

// ErrQuotaExceeded is the typed error StatusErrQuota maps to. No
// server in this tree produces it: the v2 format keeps the slot so a
// peer that sends status 4 still decodes to a typed shed.
var ErrQuotaExceeded = errors.New("otserv: tenant quota exceeded")

// ErrLeaseExpired is the typed rejection for operations on a session
// whose lease ran out — a disconnected client that stayed away past
// the lease window, or (through the router) a session whose shard
// died. The session's pool position is gone; open a fresh session.
var ErrLeaseExpired = errors.New("otserv: session lease expired")

// ErrPoolDry is the typed shed for a draw the session pool cannot
// satisfy within its bounded wait: correlation generation is behind
// demand. Nothing was consumed; retry with backoff or draw less.
var ErrPoolDry = errors.New("otserv: pool dry")

// ErrDraining is the typed rejection for a HELLO on a draining server:
// it serves existing leases to expiry but accepts no new sessions.
var ErrDraining = errors.New("otserv: server draining")

// statusErrs orders the typed sentinels by their status byte; index 0
// and 1 (OK, free-form) have no sentinel.
var statusErrs = []error{
	StatusErrVersion:  ErrVersionMismatch,
	StatusErrBackend:  ErrBackendUnsupported,
	StatusErrQuota:    ErrQuotaExceeded,
	StatusErrLease:    ErrLeaseExpired,
	StatusErrDry:      ErrPoolDry,
	StatusErrDraining: ErrDraining,
}

// StatusOf picks the response status byte for err, so clients can
// rebuild the typed sentinel with errors.Is. Unrecognized errors map
// to the free-form StatusErr.
func StatusOf(err error) byte {
	for status := StatusErrVersion; int(status) < len(statusErrs); status++ {
		if errors.Is(err, statusErrs[status]) {
			return status
		}
	}
	return StatusErr
}

// FromStatus rebuilds the client-side error for a non-OK response:
// typed statuses wrap their sentinel around the server's message.
func FromStatus(status byte, msg string) error {
	if int(status) < len(statusErrs) && statusErrs[status] != nil {
		return fmt.Errorf("%w (server: %s)", statusErrs[status], msg)
	}
	return fmt.Errorf("otserv: server: %s", msg)
}

// ErrResponse frames an error response: the status byte chosen by
// StatusOf followed by the error text.
func ErrResponse(err error) []byte {
	return append([]byte{StatusOf(err)}, err.Error()...)
}

// OKResponse frames a success response around body.
func OKResponse(body []byte) []byte { return append([]byte{StatusOK}, body...) }

// ShardShift positions the shard id in a session id's top bits: a
// session id is SessionID(shard, seq) and any fleet component can
// recover the owning shard from the id alone with ShardOf. Shard 0 is
// the standalone (unsharded) dispenser.
const ShardShift = 40

// MaxShardID is the largest shard id the session-id layout can carry.
const MaxShardID = (1 << (64 - ShardShift)) - 1

// SessionID composes a shard-scoped session id.
func SessionID(shard, seq uint64) uint64 { return shard<<ShardShift | seq&(1<<ShardShift-1) }

// ShardOf extracts the shard id a session id belongs to.
func ShardOf(id uint64) uint64 { return id >> ShardShift }

// MaxDraw caps a single DRAW request so the response stays well under
// transport.MaxMessage (2^21 blocks = 32 MiB + choice bits).
const MaxDraw = 1 << 21

// HelloReq is the JSON body of a HELLO, after the version byte and the
// body's own "v" field (both added by HelloBody, checked by ParseHello).
type HelloReq struct {
	Params string `json:"params,omitempty"` // "" selects the server default
	// Backend names the extension backend the session should run on
	// ("" = the server's default, extension.Default). The server
	// advertises what it serves in StatsDump.Backends and rejects
	// unsupported names with StatusErrBackend before opening anything.
	Backend string `json:"backend,omitempty"`
	Depth   int    `json:"depth,omitempty"` // prefetch batches; 0 = server default
	// Workers is the session's Extend worker-goroutine cap; 0 selects
	// the server default. Requests are clamped to the server's cap so
	// one greedy session cannot oversubscribe the host.
	Workers int `json:"workers,omitempty"`
	// Tenant is a free-form label the server stores with the session
	// and reports back in SessionStats. Nothing is counted or limited
	// per tenant.
	Tenant string `json:"tenant,omitempty"`
	// LeaseMS requests how long the session survives with no attached
	// client (milliseconds); 0 selects the server default, larger
	// requests clamp to the server cap.
	LeaseMS int64 `json:"lease_ms,omitempty"`
	// SessionToken pins the session's fleet-wide routing token. The
	// router injects it after consistent-hash placement; direct
	// clients leave it empty and the shard mints one.
	SessionToken string `json:"session_token,omitempty"`
}

// HelloResp describes the opened session.
type HelloResp struct {
	Session uint64 `json:"session"`
	Shard   uint64 `json:"shard"`
	Params  string `json:"params"`
	Backend string `json:"backend"` // negotiated extension backend
	Batch   int    `json:"batch"`   // correlations per Extend batch
	DeltaLo uint64 `json:"delta_lo"`
	DeltaHi uint64 `json:"delta_hi"`
	// SessionToken is the fleet-wide routing handle: hash key for the
	// router, re-ATTACH handle for a disconnected client. It routes
	// but does not authorize.
	SessionToken string `json:"session_token"`
	LeaseMS      int64  `json:"lease_ms"`
	// Attach tokens: capability secrets the creator hands to the
	// consumer of each half.
	SenderToken   string `json:"sender_token"`
	ReceiverToken string `json:"receiver_token"`
}

// NewToken mints a session or capability token: 128 random bits in
// hex, straight from crypto/rand (a token is handed to clients, so it
// is not drawn from any endpoint's stream).
func NewToken() string {
	var b [16]byte
	// crypto/rand.Read never returns an error: it crashes the program
	// instead (Go 1.24).
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// AttachReq joins an existing session, from a second party or on
// reconnect. SessionToken (the fleet-wide routing token HELLO returned)
// names the session and is required; Token is the capability that
// authorizes a half.
type AttachReq struct {
	SessionToken string `json:"session_token,omitempty"`
	Token        string `json:"token"`
}

// Role names which half a connection's attachment may draw.
type Role string

const (
	// RoleSender may draw r0 blocks (DRAW_S).
	RoleSender Role = "sender"
	// RoleReceiver may draw choice bits and r_b blocks (DRAW_R).
	RoleReceiver Role = "receiver"
)

// AttachResp echoes the session an ATTACH landed on. Session carries
// the numeric id so token-routed reconnects learn where their draws go.
type AttachResp struct {
	Session uint64 `json:"session"`
	Shard   uint64 `json:"shard"`
	Params  string `json:"params"`
	Backend string `json:"backend"`
	Batch   int    `json:"batch"`
	Role    Role   `json:"role"`
	LeaseMS int64  `json:"lease_ms"`
}

// Attach is the ATTACH response for a party joining the session h
// describes in the given role: no Δ, no tokens.
func (h HelloResp) Attach(role Role) AttachResp {
	return AttachResp{Session: h.Session, Shard: h.Shard, Params: h.Params,
		Backend: h.Backend, Batch: h.Batch, Role: role, LeaseMS: h.LeaseMS}
}

// HalfStats is one pool half's counters as served by STATS.
type HalfStats struct {
	Generated    uint64 `json:"generated"`
	Dispensed    uint64 `json:"dispensed"`
	Refills      uint64 `json:"refills"`
	Draws        uint64 `json:"draws"`
	BlockedDraws uint64 `json:"blocked_draws"`
	BlockedNS    int64  `json:"blocked_ns"`
	Buffered     int    `json:"buffered"`
}

// SessionStats is one session's STATS view.
type SessionStats struct {
	ID      uint64 `json:"id"`
	Shard   uint64 `json:"shard"`
	Params  string `json:"params"`
	Backend string `json:"backend"`
	Tenant  string `json:"tenant,omitempty"`
	Refs    int    `json:"refs"`
	// Orphaned is true while no client holds the session and the lease
	// clock is running; ExpiresInMS is the remaining window then.
	Orphaned    bool      `json:"orphaned,omitempty"`
	ExpiresInMS int64     `json:"expires_in_ms,omitempty"`
	Sender      HalfStats `json:"sender"`
	Receiver    HalfStats `json:"receiver"`
}

// StatsDump is the server-wide STATS view. In fleet mode the router
// merges one per shard into a fleet-wide dump.
type StatsDump struct {
	Shard          uint64 `json:"shard"`
	Sessions       int    `json:"sessions"`
	SessionsOpened uint64 `json:"sessions_opened"`
	SessionsClosed uint64 `json:"sessions_closed"`
	// SessionsExpired counts teardowns by lease expiry (a subset of
	// SessionsClosed).
	SessionsExpired uint64 `json:"sessions_expired"`
	// QuotaSheds keeps its v2 slot and is always 0: no server in this
	// tree sheds on a quota. DrySheds counts wire.ErrPoolDry sheds.
	QuotaSheds  uint64 `json:"quota_sheds"`
	DrySheds    uint64 `json:"dry_sheds"`
	MaxSessions int    `json:"max_sessions"`
	Draining    bool   `json:"draining,omitempty"`
	// Backends is the server's advertised extension-backend allowlist.
	Backends   []string       `json:"backends"`
	PerSession []SessionStats `json:"per_session,omitempty"`
}

// helloJSON is the JSON body of a HELLO: the protocol version, then the
// request's fields.
type helloJSON struct {
	V int `json:"v"`
	HelloReq
}

// HelloBody frames a HELLO request body: the protocol version byte
// followed by the JSON request, which repeats the version as "v".
func HelloBody(req HelloReq) ([]byte, error) {
	body, err := json.Marshal(helloJSON{ProtoVersion, req})
	if err != nil {
		return nil, err
	}
	return append([]byte{ProtoVersion}, body...), nil
}

// ParseHello decodes a HELLO body: the version byte, then the JSON
// request, whose "v" must agree. Anything else — including the legacy
// v1 bare-JSON framing, whose one-release compatibility window is
// over — is an ErrVersionMismatch-wrapping rejection.
func ParseHello(body []byte) (HelloReq, error) {
	if len(body) == 0 {
		return HelloReq{}, fmt.Errorf("%w: empty HELLO body", ErrVersionMismatch)
	}
	if body[0] == '{' {
		// Legacy v1 framing: bare JSON, no version byte. The compat
		// window closed; name the failure precisely.
		return HelloReq{}, fmt.Errorf("%w: legacy v1 bare-JSON HELLO no longer accepted, server speaks v%d", ErrVersionMismatch, ProtoVersion)
	}
	if body[0] != ProtoVersion {
		return HelloReq{}, fmt.Errorf("%w: client speaks v%d, server speaks v%d", ErrVersionMismatch, body[0], ProtoVersion)
	}
	var msg helloJSON
	if err := json.Unmarshal(body[1:], &msg); err != nil {
		return HelloReq{}, fmt.Errorf("otserv: bad HELLO: %w", err)
	}
	if msg.V != ProtoVersion {
		return HelloReq{}, fmt.Errorf("%w: frame says v%d, body says v%d", ErrVersionMismatch, ProtoVersion, msg.V)
	}
	return msg.HelloReq, nil
}

// DrawReq encodes a DRAW_S/DRAW_R request.
func DrawReq(op byte, session uint64, n int) []byte {
	req := make([]byte, 13)
	req[0] = op
	binary.LittleEndian.PutUint64(req[1:], session)
	binary.LittleEndian.PutUint32(req[9:], uint32(n))
	return req
}

// ParseSessionN decodes the fixed body of a DRAW request.
func ParseSessionN(body []byte) (uint64, int, error) {
	if len(body) != 12 {
		return 0, 0, fmt.Errorf("otserv: draw request body is %d bytes, want 12", len(body))
	}
	session := binary.LittleEndian.Uint64(body)
	n := int(binary.LittleEndian.Uint32(body[8:]))
	return session, n, nil
}

// SessionReq encodes a STATS/CLOSE request.
func SessionReq(op byte, session uint64) []byte {
	req := make([]byte, 9)
	req[0] = op
	binary.LittleEndian.PutUint64(req[1:], session)
	return req
}

// ParseSession decodes a STATS/CLOSE body.
func ParseSession(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("otserv: request body is %d bytes, want 8", len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

// DrawRResp lays out a DRAW_R payload: packed choice bits (the
// transport.PackBits layout) then blocks.
func DrawRResp(bits []bool, blocks []block.Block) []byte {
	bb := transport.PackBits(bits)
	out := make([]byte, 0, len(bb)+len(blocks)*block.Size)
	out = append(out, bb...)
	return append(out, block.ToBytes(blocks)...)
}

// ParseDrawRResp splits a DRAW_R payload back into bits and blocks.
func ParseDrawRResp(body []byte, n int) ([]bool, []block.Block, error) {
	bitBytes := (n + 7) / 8
	if len(body) != bitBytes+n*block.Size {
		return nil, nil, fmt.Errorf("otserv: DRAW_R response is %d bytes, want %d", len(body), bitBytes+n*block.Size)
	}
	return transport.UnpackBits(body[:bitBytes], n), block.SliceFromBytes(body[bitBytes:]), nil
}
