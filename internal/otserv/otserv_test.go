package otserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ironman"
	"ironman/internal/block"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/otserv/wire"
)

// testResolve serves small parameter sets so sessions are cheap.
func testResolve(name string) (ferret.Params, error) {
	switch name {
	case "small":
		return ferret.TestParams(600, 32, 128, 8), nil
	case "mid":
		return ferret.TestParams(3000, 32, 512, 16), nil
	default:
		return ferret.Params{}, fmt.Errorf("test resolve: unknown set %q", name)
	}
}

func startServer(t *testing.T, cfg Config) (addr string, srv *Server) {
	t.Helper()
	if cfg.Resolve == nil {
		cfg.Resolve = testResolve
		cfg.DefaultParams = "small"
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// verify checks a drawn batch under its session's Δ with the public
// API's VerifyCOTs.
func verify(t *testing.T, delta block.Block, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	if err := ironman.VerifyCOTs(delta, z, bits, y); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSessions is the acceptance check for the dispenser:
// six sessions (over four clients' worth of concurrency and then some)
// draw COT batches from one server at once, and every batch verifies
// under its own session's fresh Δ.
func TestConcurrentSessions(t *testing.T) {
	addr, _ := startServer(t, Config{})
	const sessions = 6
	const draws = 3
	deltas := make([]block.Block, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dial(t, addr)
			sess, err := c.NewSession(SessionConfig{Params: "small", Depth: 2})
			if err != nil {
				t.Error(err)
				return
			}
			delta, ok := sess.Delta()
			if !ok {
				t.Error("creator must learn delta")
				return
			}
			deltas[i] = delta
			// Uneven draw sizes exercise batch-boundary buffering.
			for d := 0; d < draws; d++ {
				n := 150 + 97*d + 13*i
				z, err := sess.SenderCOTs(n)
				if err != nil {
					t.Error(err)
					return
				}
				bits, y, err := sess.ReceiverCOTs(n)
				if err != nil {
					t.Error(err)
					return
				}
				verify(t, delta, z, bits, y)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		for j := i + 1; j < sessions; j++ {
			if deltas[i] == deltas[j] {
				t.Fatalf("sessions %d and %d share a delta", i, j)
			}
		}
	}
}

// TestWorkersClampAndSession: a multi-worker session's correlations
// verify like a sequential one (the clamp itself is unit-tested in the
// session package).
func TestWorkersClampAndSession(t *testing.T) {
	addr, _ := startServer(t, Config{Workers: 2})
	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small", Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	z, err := sess.SenderCOTs(200)
	if err != nil {
		t.Fatal(err)
	}
	bits, y, err := sess.ReceiverCOTs(200)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok := sess.Delta()
	if !ok {
		t.Fatal("creator session must know delta")
	}
	verify(t, delta, z, bits, y)
}

func TestAttachSplitsHalves(t *testing.T) {
	addr, _ := startServer(t, Config{})
	creator := dial(t, addr)
	sess, err := creator.NewSession(SessionConfig{Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	delta, _ := sess.Delta()

	other := dial(t, addr)
	attached, err := other.Attach(sess.ID(), sess.ReceiverToken())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := attached.Delta(); ok {
		t.Fatal("attached handle must not learn delta")
	}
	if attached.Role() != RoleReceiver {
		t.Fatalf("role = %q, want receiver", attached.Role())
	}
	if attached.Batch() != sess.Batch() || attached.Params() != sess.Params() {
		t.Fatalf("attach metadata mismatch: %d/%s vs %d/%s",
			attached.Batch(), attached.Params(), sess.Batch(), sess.Params())
	}
	// The receiver token must not authorize sender-half draws — with
	// both halves, an attacher could reconstruct Δ.
	if _, err := attached.SenderCOTs(10); err == nil ||
		!strings.Contains(err.Error(), "no sender role") {
		t.Fatalf("err = %v, want role rejection", err)
	}

	// Two parties consume the two halves of the same stream.
	const n = 500
	var z []block.Block
	var serr error
	done := make(chan struct{})
	go func() {
		z, serr = sess.SenderCOTs(n)
		close(done)
	}()
	bits, y, err := attached.ReceiverCOTs(n)
	<-done
	if serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	verify(t, delta, z, bits, y)
}

func TestDrawChunking(t *testing.T) {
	// A draw above MaxDraw must transparently split. Shrink the sizes
	// by driving the request loop with small chunks instead: draw in a
	// few uneven calls crossing many Extend batches.
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small", Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	delta, _ := sess.Delta()
	// 5 batches' worth in one call (batch = 432 for the small set).
	n := 5 * sess.Batch()
	z, err := sess.SenderCOTs(n)
	if err != nil {
		t.Fatal(err)
	}
	bits, y, err := sess.ReceiverCOTs(n)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, delta, z, bits, y)
}

func TestSessionLimit(t *testing.T) {
	addr, _ := startServer(t, Config{MaxSessions: 2})
	c := dial(t, addr)
	for i := 0; i < 2; i++ {
		if _, err := c.NewSession(SessionConfig{Params: "small"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NewSession(SessionConfig{Params: "small"}); err == nil ||
		!strings.Contains(err.Error(), "session limit") {
		t.Fatalf("err = %v, want session limit", err)
	}
}

func TestDrawRequiresAttachment(t *testing.T) {
	addr, _ := startServer(t, Config{})
	creator := dial(t, addr)
	sess, err := creator.NewSession(SessionConfig{Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	stranger := dial(t, addr)
	forged := &Session{c: stranger, id: sess.ID(), batch: sess.Batch()}
	if _, err := forged.SenderCOTs(10); err == nil ||
		!strings.Contains(err.Error(), "not attached") {
		t.Fatalf("err = %v, want attachment error", err)
	}
	// A guessed session id without a token gets nothing.
	if _, err := stranger.Attach(sess.ID(), "deadbeef"); err == nil {
		t.Fatal("attach without the right token must fail")
	}
}

func TestDuplicateHandlesCountReferences(t *testing.T) {
	// Two handles on one conn (create + attach) must hold two
	// references: closing one may not tear the session from the other.
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	s1, err := c.NewSession(SessionConfig{Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Attach(s1.ID(), s1.ReceiverToken())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.ReceiverCOTs(50); err != nil {
		t.Fatalf("second handle lost the session: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Sessions != 0 {
		t.Fatalf("session survived both closes: %+v", dump)
	}
}

func TestBadHandshakes(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	if _, err := c.NewSession(SessionConfig{Params: "nope"}); err == nil {
		t.Fatal("unknown params must fail")
	}
	if _, err := c.Attach(9999, "deadbeef"); err == nil {
		t.Fatal("attach to missing session must fail")
	}
	// Wrong protocol version.
	if err := c.roundTripJSON(wire.OpHello, wire.HelloReq{V: 99, Params: "small"}, &wire.HelloResp{}); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestStatsAndTeardown(t *testing.T) {
	// Short lease + fast sweep: a dropped client's session is reclaimed
	// quickly instead of riding out the default 15 s orphan window.
	addr, _ := startServer(t, Config{Lease: 50 * time.Millisecond, Sweep: 10 * time.Millisecond})
	watcher := dial(t, addr)

	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SenderCOTs(100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.ReceiverCOTs(100); err != nil {
		t.Fatal(err)
	}

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sender.Dispensed != 100 || st.Receiver.Dispensed != 100 || st.Refs != 1 || st.Params != "small" {
		t.Fatalf("session stats: %+v", st)
	}
	if st.Sender.Generated < 100 || st.Sender.Refills == 0 {
		t.Fatalf("prefetch not visible in stats: %+v", st)
	}

	dump, err := watcher.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Sessions != 1 || dump.SessionsOpened != 1 || len(dump.PerSession) != 1 {
		t.Fatalf("server stats: %+v", dump)
	}
	// Per-session stats require an attachment on the querying conn.
	if _, err := watcher.roundTrip(wire.SessionReq(wire.OpStats, sess.ID())); err == nil ||
		!strings.Contains(err.Error(), "not attached") {
		t.Fatalf("err = %v, want attachment requirement", err)
	}

	// Dropping the only client orphans the session; the janitor tears
	// it down once the lease runs out.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		dump, err = watcher.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if dump.Sessions == 0 && dump.SessionsClosed == 1 && dump.SessionsExpired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not torn down: %+v", dump)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExplicitClose(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SenderCOTs(1); err == nil {
		t.Fatal("draw after close must fail")
	}
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Sessions != 0 {
		t.Fatalf("session survived close: %+v", dump)
	}
}

func TestSharedClientConcurrentSessions(t *testing.T) {
	// One connection multiplexing several sessions from several
	// goroutines: requests serialize but must not corrupt.
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := c.NewSession(SessionConfig{Params: "small"})
			if err != nil {
				t.Error(err)
				return
			}
			delta, _ := sess.Delta()
			z, err := sess.SenderCOTs(321)
			if err != nil {
				t.Error(err)
				return
			}
			bits, y, err := sess.ReceiverCOTs(321)
			if err != nil {
				t.Error(err)
				return
			}
			verify(t, delta, z, bits, y)
		}()
	}
	wg.Wait()
}

// TestBackendNegotiation: HELLO negotiates the extension backend, the
// session handle and STATS report it, and draws verify on every
// advertised backend.
func TestBackendNegotiation(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	want := extension.Names()
	if len(dump.Backends) != len(want) {
		t.Fatalf("advertised backends %v, want %v", dump.Backends, want)
	}
	for i, name := range want {
		if dump.Backends[i] != name {
			t.Fatalf("advertised backends %v, want %v", dump.Backends, want)
		}
	}
	for _, name := range want {
		sess, err := c.NewSession(SessionConfig{Params: "small", Backend: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sess.Backend() != name {
			t.Fatalf("session backend = %q, want %q", sess.Backend(), name)
		}
		delta, _ := sess.Delta()
		z, err := sess.SenderCOTs(100)
		if err != nil {
			t.Fatal(err)
		}
		bits, y, err := sess.ReceiverCOTs(100)
		if err != nil {
			t.Fatal(err)
		}
		verify(t, delta, z, bits, y)
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Backend != name {
			t.Fatalf("session stats backend = %q, want %q", st.Backend, name)
		}
		attached, err := c.Attach(sess.ID(), sess.ReceiverToken())
		if err != nil {
			t.Fatal(err)
		}
		if attached.Backend() != name {
			t.Fatalf("attached backend = %q, want %q", attached.Backend(), name)
		}
	}
	// An empty request gets the default backend.
	sess, err := c.NewSession(SessionConfig{Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Backend() != extension.Default {
		t.Fatalf("default backend = %q, want %q", sess.Backend(), extension.Default)
	}
}

// TestBackendRejection: an unsupported backend fails the handshake with
// the typed sentinel on the client, and the server refuses before any
// session state (visible as zero sessions opened) exists.
func TestBackendRejection(t *testing.T) {
	addr, _ := startServer(t, Config{Backends: []string{"ferret"}})
	c := dial(t, addr)
	if _, err := c.NewSession(SessionConfig{Params: "small", Backend: "softspoken"}); !errors.Is(err, ErrBackendUnsupported) {
		t.Fatalf("err = %v, want ErrBackendUnsupported", err)
	}
	if _, err := c.NewSession(SessionConfig{Params: "small", Backend: "iknp-classic"}); !errors.Is(err, ErrBackendUnsupported) {
		t.Fatalf("err = %v, want ErrBackendUnsupported", err)
	}
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if dump.SessionsOpened != 0 || dump.Sessions != 0 {
		t.Fatalf("rejected HELLOs left session state: %+v", dump)
	}
	if len(dump.Backends) != 1 || dump.Backends[0] != "ferret" {
		t.Fatalf("advertised backends %v, want [ferret]", dump.Backends)
	}
	// The allowlisted backend still works.
	if _, err := c.NewSession(SessionConfig{Params: "small", Backend: "ferret"}); err != nil {
		t.Fatal(err)
	}
}

// TestHelloVersioning: future versions AND the retired legacy v1
// bare-JSON HELLO are refused with the typed sentinel, and a rejected
// handshake leaves zero session state behind.
func TestHelloVersioning(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)

	// A v3 client (version byte the server does not speak).
	body, err := json.Marshal(wire.HelloReq{V: 3, Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(append([]byte{wire.OpHello, 3}, body...)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// A frame/body version disagreement.
	if _, err := c.roundTrip(append([]byte{wire.OpHello, ProtoVersion}, body...)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// An empty HELLO body.
	if _, err := c.roundTrip([]byte{wire.OpHello}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// Legacy v1 (bare JSON body, no version byte): the one-release
	// compatibility window is over; it must be refused, not served.
	legacy, err := json.Marshal(wire.HelloReq{V: 1, Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(append([]byte{wire.OpHello}, legacy...)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("legacy v1 HELLO: err = %v, want ErrVersionMismatch", err)
	}
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if dump.SessionsOpened != 0 || dump.Sessions != 0 {
		t.Fatalf("rejected HELLOs left session state: %+v", dump)
	}
}
