package session

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/otserv/wire"
)

// tinyResolve serves parameter sets cheap enough to open many sessions
// in a unit test.
func tinyResolve(name string) (ferret.Params, error) {
	switch name {
	case "tiny":
		return ferret.TestParams(600, 32, 128, 8), nil
	}
	return ferret.ParamsByName(name)
}

func testConfig() Config {
	return Config{
		Resolve:       tinyResolve,
		DefaultParams: "tiny",
		MaxSessions:   32,
		Sweep:         time.Hour, // tests drive Expire by hand
	}
}

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

// verifyCOTs checks the dealt correlation invariant z = y ⊕ b·Δ.
func verifyCOTs(t *testing.T, delta block.Block, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	if len(z) != len(bits) || len(z) != len(y) {
		t.Fatalf("length mismatch: %d z, %d bits, %d y", len(z), len(bits), len(y))
	}
	for i := range z {
		want := y[i]
		if bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("correlation broken at %d", i)
		}
	}
}

func TestOpenStampsShardScopedIDs(t *testing.T) {
	cfg := testConfig()
	cfg.ShardID = 3
	r := newTestRegistry(t, cfg)
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if wire.ShardOf(sess.ID()) != 3 {
		t.Fatalf("ShardOf(%d) = %d, want 3", sess.ID(), wire.ShardOf(sess.ID()))
	}
	if sess.Token() == "" || sess.SenderToken() == "" || sess.ReceiverToken() == "" {
		t.Fatal("tokens must be minted")
	}
	if sess.Token() == sess.SenderToken() || sess.Token() == sess.ReceiverToken() {
		t.Fatal("routing token must differ from the capabilities")
	}
}

// TestLeaseExpiryTypedError: an orphaned session past its lease is
// torn down by Expire, a late reconnect-with-token fails with the
// typed wire.ErrLeaseExpired, and an in-flight draw handle fails typed
// too — never a hang, never a generic miss.
func TestLeaseExpiryTypedError(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	token, capS := sess.Token(), sess.SenderToken()
	r.Detach(sess.ID(), true) // connection loss, not CLOSE

	if n := r.Expire(now.Add(40 * time.Millisecond)); n != 0 {
		t.Fatalf("expired %d sessions inside the lease window", n)
	}
	if n := r.Expire(now.Add(60 * time.Millisecond)); n != 1 {
		t.Fatalf("expired %d sessions past the lease, want 1", n)
	}
	if _, _, err := r.AttachByToken(token, capS); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("reconnect after expiry: err = %v, want ErrLeaseExpired", err)
	}
	if _, _, err := r.AttachByID(sess.ID(), capS); err == nil {
		t.Fatal("attach by id after expiry must fail")
	}
	if _, err := sess.DrawSender(8); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("draw on expired session: err = %v, want ErrLeaseExpired", err)
	}
	if _, _, err := r.AttachByToken("no-such-token", capS); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("unknown token: err = %v, want ErrLeaseExpired", err)
	}
	if dump := r.Dump(); dump.SessionsExpired != 1 {
		t.Fatalf("SessionsExpired = %d, want 1", dump.SessionsExpired)
	}
}

// TestLeaseExpiryTypedErrorBuffered is TestLeaseExpiryTypedError with
// the race taken out: the pool provably holds more than the draw asks
// for when the lease runs out, and the expired session still dispenses
// nothing.
func TestLeaseExpiryTypedErrorBuffered(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.DrawSender(8); err != nil {
		t.Fatal(err)
	}
	before := sess.pool.SenderHalf().Stats()
	if before.Buffered < 8 {
		t.Fatalf("only %d buffered after the first draw, the case needs 8", before.Buffered)
	}
	r.Detach(sess.ID(), true)
	if n := r.Expire(now.Add(60 * time.Millisecond)); n != 1 {
		t.Fatalf("expired %d sessions past the lease, want 1", n)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.DrawSender(8); !errors.Is(err, wire.ErrLeaseExpired) {
			t.Fatalf("sender draw %d on expired session: err = %v, want ErrLeaseExpired", i, err)
		}
		if _, _, err := sess.DrawReceiver(8); !errors.Is(err, wire.ErrLeaseExpired) {
			t.Fatalf("receiver draw %d on expired session: err = %v, want ErrLeaseExpired", i, err)
		}
	}
	if after := sess.pool.SenderHalf().Stats(); after.Dispensed != before.Dispensed {
		t.Fatalf("expired session dispensed %d -> %d", before.Dispensed, after.Dispensed)
	}
}

// TestStatsDrawStormConsistency: after concurrent draws on both
// halves, the registry-served STATS totals must equal the pool's own
// Stats() for both halves — exactly, not approximately.
func TestStatsDrawStormConsistency(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := sess.DrawSender(64); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := sess.DrawReceiver(64); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	served, err := r.Stats(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	ps, pr := sess.pool.SenderHalf().Stats(), sess.pool.ReceiverHalf().Stats()
	if served.Sender != halfStats(ps) {
		t.Errorf("sender half: STATS %+v != pool %+v", served.Sender, halfStats(ps))
	}
	if served.Receiver != halfStats(pr) {
		t.Errorf("receiver half: STATS %+v != pool %+v", served.Receiver, halfStats(pr))
	}
}

// TestReconnectResumesPoolPosition: draws before an orphan/reconnect
// cycle and after it stitch into one contiguous correlation stream —
// the reconnect resumed the exact pool position, byte-identically.
func TestReconnectResumesPoolPosition(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const n1, n2 = 96, 160
	z1, err := sess.DrawSender(n1)
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), true) // drop the creator's conn

	st, err := r.Stats(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Orphaned {
		t.Fatal("session must report orphaned while the lease clock runs")
	}

	got, role, err := r.AttachByToken(sess.Token(), sess.SenderToken())
	if err != nil {
		t.Fatalf("reconnect inside the lease window: %v", err)
	}
	if got != sess || role != wire.RoleSender {
		t.Fatalf("reconnect landed on session %d role %q", got.ID(), role)
	}
	z2, err := got.DrawSender(n2)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver half never detached conceptually; drawing the whole
	// n1+n2 stretch must pair exactly with z1 ++ z2.
	bits, y, err := sess.DrawReceiver(n1 + n2)
	if err != nil {
		t.Fatal(err)
	}
	verifyCOTs(t, sess.Delta(), append(append([]block.Block{}, z1...), z2...), bits, y)

	st, err = r.Stats(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Orphaned || st.Refs != 1 {
		t.Fatalf("after reconnect: orphaned=%v refs=%d", st.Orphaned, st.Refs)
	}
}

// TestCloseIsImmediate: an explicit CLOSE (orphan=false) tears the
// session down with no lease window.
func TestCloseIsImmediate(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), false)
	if r.Len() != 0 {
		t.Fatalf("%d sessions live after CLOSE", r.Len())
	}
	if _, _, err := r.AttachByToken(sess.Token(), sess.SenderToken()); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("reattach after CLOSE: err = %v, want ErrLeaseExpired", err)
	}
}

// TestTenantSessionCap: the per-tenant session quota sheds typed and
// frees up when a session closes; other tenants are unaffected.
func TestTenantSessionCap(t *testing.T) {
	cfg := testConfig()
	cfg.Quota.SessionsPerTenant = 2
	r := newTestRegistry(t, cfg)

	a1, err := r.Open(OpenRequest{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("third acme session: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "globex"}); err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}
	r.Detach(a1.ID(), false)
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); err != nil {
		t.Fatalf("quota slot not reclaimed on close: %v", err)
	}
	if dump := r.Dump(); dump.QuotaSheds == 0 {
		t.Fatal("quota shed not counted")
	}
}

// TestDrawRateQuotaSheds: a draw whose token-bucket reservation would
// mature past MaxWait sheds with wire.ErrQuotaExceeded up front and
// consumes nothing; in-budget draws keep working.
func TestDrawRateQuotaSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Quota.DrawPerSec = 1000
	cfg.Quota.Burst = 128
	cfg.Quota.MaxWait = 10 * time.Millisecond
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.DrawSender(64); err != nil {
		t.Fatalf("in-burst draw: %v", err)
	}
	// 4096 over a ~64-token balance needs ~4 s of budget at 1000/s.
	if _, err := sess.DrawSender(4096); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("over-rate draw: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := sess.DrawSender(16); err != nil {
		t.Fatalf("draw after shed: %v", err)
	}
	if dump := r.Dump(); dump.QuotaSheds == 0 {
		t.Fatal("rate shed not counted")
	}
}

// TestDrainRefusesOpens: a draining shard sheds HELLOs typed while
// existing sessions keep drawing.
func TestDrainRefusesOpens(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if _, err := r.Open(OpenRequest{}); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("open on draining shard: err = %v, want ErrDraining", err)
	}
	if _, err := sess.DrawSender(32); err != nil {
		t.Fatalf("existing session must keep serving through drain: %v", err)
	}
	if r.Len() == 0 {
		t.Fatal("shard with a live session is not idle")
	}
	r.Detach(sess.ID(), false)
	if r.Len() != 0 {
		t.Fatal("drained shard with zero sessions must report idle")
	}
}

// TestConcurrentExpiryVsDraw: goroutines hammer draws while the
// janitor expires the session under them. Run under -race: every draw
// either succeeds or fails with a typed sentinel — no hang, no panic,
// no data race.
func TestConcurrentExpiryVsDraw(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), true) // orphaned; lease clock running

	var wg sync.WaitGroup
	stopDraw := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(recv bool) {
			defer wg.Done()
			for {
				select {
				case <-stopDraw:
					return
				default:
				}
				var err error
				if recv {
					_, _, err = sess.DrawReceiver(16)
				} else {
					_, err = sess.DrawSender(16)
				}
				if err != nil {
					if !errors.Is(err, wire.ErrLeaseExpired) && !errors.Is(err, wire.ErrPoolDry) {
						t.Errorf("draw failed untyped: %v", err)
					}
					return
				}
			}
		}(i%2 == 0)
	}
	mu.Lock()
	now = now.Add(20 * time.Millisecond)
	mu.Unlock()
	for r.Expire(cfg.now()) == 0 {
		time.Sleep(time.Millisecond)
		mu.Lock()
		now = now.Add(time.Millisecond)
		mu.Unlock()
	}
	close(stopDraw)
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("%d sessions live after expiry", r.Len())
	}
}

// TestWorkerClamp: worker requests clamp to the registry cap.
func TestWorkerClamp(t *testing.T) {
	cfg := Config{Workers: 2}.withDefaults()
	if got := cfg.workers(0); got != 2 {
		t.Fatalf("default workers = %d, want cap 2", got)
	}
	if got := cfg.workers(1); got != 1 {
		t.Fatalf("requested 1 worker, got %d", got)
	}
	if got := cfg.workers(64); got != 2 {
		t.Fatalf("oversized request = %d, want clamp to 2", got)
	}
}

// TestBackendAllowlist: opens naming a backend outside the registry's
// allowlist shed typed before any session state exists.
func TestBackendAllowlist(t *testing.T) {
	cfg := testConfig()
	cfg.Backends = []string{"ferret"}
	r := newTestRegistry(t, cfg)
	if _, err := r.Open(OpenRequest{Backend: "no-such-backend"}); !errors.Is(err, wire.ErrBackendUnsupported) {
		t.Fatalf("err = %v, want ErrBackendUnsupported", err)
	}
	if r.Len() != 0 {
		t.Fatal("refused open leaked session state")
	}
}
