package router

import (
	"errors"
	"net"
	"testing"
	"time"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/otserv"
	"ironman/internal/otserv/wire"
)

// tinyResolve serves parameter sets cheap enough to open dozens of
// sessions per test.
func tinyResolve(name string) (ferret.Params, error) {
	switch name {
	case "tiny":
		return ferret.TestParams(600, 32, 128, 8), nil
	}
	return ferret.ParamsByName(name)
}

type testShard struct {
	srv  *otserv.Server
	ln   net.Listener
	addr string
}

func startShard(t *testing.T, shardID uint64) *testShard {
	t.Helper()
	srv := otserv.NewServer(otserv.Config{
		Resolve:       tinyResolve,
		DefaultParams: "tiny",
		MaxSessions:   4096,
		ShardID:       shardID,
		Lease:         5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	sh := &testShard{srv: srv, ln: ln, addr: ln.Addr().String()}
	t.Cleanup(func() { sh.stop() })
	return sh
}

func (sh *testShard) stop() {
	if sh.srv != nil {
		sh.srv.Close()
		sh.srv = nil
	}
}

func startRouter(t *testing.T, shards ...*testShard) (*Router, string) {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.addr
	}
	r := New(Config{Shards: addrs, Probe: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return r, ln.Addr().String()
}

func dialRouter(t *testing.T, addr string) *otserv.Client {
	t.Helper()
	c, err := otserv.Dial(addr)
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPlacementBalanceAcrossShards(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2), startShard(t, 3)}
	_, addr := startRouter(t, shards...)
	c := dialRouter(t, addr)

	const n = 60
	perShard := map[uint64]int{}
	for i := 0; i < n; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		perShard[wire.ShardOf(sess.ID())]++
	}
	if len(perShard) != 3 {
		t.Fatalf("placements landed on %d shards, want 3: %v", len(perShard), perShard)
	}
	// Acceptance bar: per-shard balance within 2x of even.
	even := n / 3
	for id, got := range perShard {
		if got > 2*even || got < even/2 {
			t.Fatalf("shard %d holds %d of %d sessions (balance beyond 2x of even %d): %v",
				id, got, n, even, perShard)
		}
	}
}

func TestDrawsProxyToOwningShard(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2)}
	_, addr := startRouter(t, shards...)
	c := dialRouter(t, addr)

	sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 512})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	delta, ok := sess.Delta()
	if !ok {
		t.Fatal("opener should learn delta")
	}
	z, err := sess.SenderCOTs(96)
	if err != nil {
		t.Fatalf("sender draw via router: %v", err)
	}
	bits, y, err := sess.ReceiverCOTs(96)
	if err != nil {
		t.Fatalf("receiver draw via router: %v", err)
	}
	for i := range z {
		want := y[i]
		if bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("correlation broken at %d through router", i)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close via router: %v", err)
	}
}

func TestReconnectWithTokenThroughRouter(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2), startShard(t, 3)}
	_, addr := startRouter(t, shards...)

	c1 := dialRouter(t, addr)
	sess, err := c1.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 512})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	token := sess.Token()
	senderTok := sess.SenderToken()
	receiverTok := sess.ReceiverToken()
	delta, _ := sess.Delta()
	z1, err := sess.SenderCOTs(64)
	if err != nil {
		t.Fatalf("first draw: %v", err)
	}
	// Drop the client abruptly: the shard orphans the session into its
	// lease window.
	c1.Close()

	c2 := dialRouter(t, addr)
	var re *otserv.Session
	for i := 0; ; i++ {
		re, err = c2.AttachToken(token, senderTok)
		if err == nil {
			break
		}
		// The shard may not have processed the dropped conn yet.
		if i > 100 {
			t.Fatalf("reattach via router: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if re.ID() != sess.ID() {
		t.Fatalf("reattach routed to a different session: %d vs %d", re.ID(), sess.ID())
	}
	z2, err := re.SenderCOTs(64)
	if err != nil {
		t.Fatalf("post-reconnect draw: %v", err)
	}
	// Resume must advance the same pool, not restart it: attach the
	// receiver capability, drain its side across the full 128, and
	// check the correlation holds for the concatenated sender stream.
	rx, err := c2.AttachToken(token, receiverTok)
	if err != nil {
		t.Fatalf("receiver reattach: %v", err)
	}
	bits, y, err := rx.ReceiverCOTs(128)
	if err != nil {
		t.Fatalf("receiver draw: %v", err)
	}
	z := append(append([]block.Block{}, z1...), z2...)
	for i := range z {
		want := y[i]
		if bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("resumed stream broke correlation at %d", i)
		}
	}
}

func TestKilledShardYieldsTypedLeaseErrorNeverHangs(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2), startShard(t, 3)}
	r, addr := startRouter(t, shards...)
	c := dialRouter(t, addr)

	// Open sessions until we hold one per shard.
	byShard := map[uint64]*otserv.Session{}
	for i := 0; len(byShard) < 3 && i < 200; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sid := wire.ShardOf(sess.ID())
		if _, ok := byShard[sid]; !ok {
			byShard[sid] = sess
		}
	}
	if len(byShard) != 3 {
		t.Fatalf("could not reach all 3 shards: %v", byShard)
	}

	// Kill shard 2 mid-run.
	shards[1].stop()

	victim := byShard[2]
	done := make(chan error, 1)
	go func() {
		_, err := victim.SenderCOTs(32)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, otserv.ErrLeaseExpired) {
			t.Fatalf("draw on killed shard: got %v, want ErrLeaseExpired", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("draw on killed shard hung")
	}

	// Survivor shards are unaffected; the same client conn keeps
	// drawing from them.
	for _, sid := range []uint64{1, 3} {
		if _, err := byShard[sid].SenderCOTs(32); err != nil {
			t.Fatalf("draw on surviving shard %d: %v", sid, err)
		}
	}

	// New placements skip the dead shard.
	for i := 0; i < 6; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("post-kill session %d: %v", i, err)
		}
		if wire.ShardOf(sess.ID()) == 2 {
			t.Fatal("placement landed on the dead shard")
		}
	}

	// A reconnect-with-token for a session the dead shard held fails
	// with the typed lease error (no shard holds it), never hangs.
	_, err := c.AttachToken(victim.Token(), victim.SenderToken())
	if !errors.Is(err, otserv.ErrLeaseExpired) {
		t.Fatalf("reattach to killed shard's session: got %v, want ErrLeaseExpired", err)
	}

	// Restart the shard at the same address (empty state). The health
	// loop revives it; placements reach it again, and the old session's
	// token still fails typed — a restarted shard cannot resurrect
	// leases it never had.
	srv2 := otserv.NewServer(otserv.Config{
		Resolve:       tinyResolve,
		DefaultParams: "tiny",
		MaxSessions:   4096,
		ShardID:       2,
	})
	ln2, err := net.Listen("tcp", shards[1].addr)
	if err != nil {
		t.Fatalf("restart shard 2: %v", err)
	}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })
	deadline := time.Now().Add(10 * time.Second)
	revived := false
	for time.Now().Before(deadline) {
		for _, view := range r.Shards() {
			if view.Addr == shards[1].addr && view.State == "live" {
				revived = true
			}
		}
		if revived {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !revived {
		t.Fatal("router never revived the restarted shard")
	}
	landed := false
	for i := 0; i < 100 && !landed; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("post-restart session %d: %v", i, err)
		}
		landed = wire.ShardOf(sess.ID()) == 2
	}
	if !landed {
		t.Fatal("no placement reached the restarted shard")
	}
	_, err = c.AttachToken(victim.Token(), victim.SenderToken())
	if !errors.Is(err, otserv.ErrLeaseExpired) {
		t.Fatalf("reattach after shard restart: got %v, want ErrLeaseExpired", err)
	}
}

func TestDrainShardStopsPlacementServesLeases(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2)}
	r, addr := startRouter(t, shards...)
	c := dialRouter(t, addr)

	// Land one session on each shard first.
	byShard := map[uint64]*otserv.Session{}
	for i := 0; len(byShard) < 2 && i < 200; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sid := wire.ShardOf(sess.ID())
		if _, ok := byShard[sid]; !ok {
			byShard[sid] = sess
		}
	}

	// Drain shard 1 at both layers: the shard refuses direct HELLOs,
	// the router stops placing there.
	shards[0].srv.Drain()
	if !r.DrainShard(shards[0].addr) {
		t.Fatal("router does not know shard 1")
	}

	for i := 0; i < 8; i++ {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("post-drain session %d: %v", i, err)
		}
		if wire.ShardOf(sess.ID()) == 1 {
			t.Fatal("placement landed on the draining shard")
		}
	}

	// The draining shard still serves its existing lease.
	if _, err := byShard[1].SenderCOTs(32); err != nil {
		t.Fatalf("draw on draining shard: %v", err)
	}
}

func TestMergedStatsSpansShards(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2)}
	_, addr := startRouter(t, shards...)
	c := dialRouter(t, addr)

	var opened []*otserv.Session
	for len(opened) < 6 {
		sess, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		opened = append(opened, sess)
	}
	dump, err := c.ServerStats()
	if err != nil {
		t.Fatalf("merged stats: %v", err)
	}
	if dump.Sessions != 6 || len(dump.PerSession) != 6 {
		t.Fatalf("merged dump shows %d sessions (%d detailed), want 6", dump.Sessions, len(dump.PerSession))
	}
	if dump.SessionsOpened != 6 {
		t.Fatalf("merged opened %d, want 6", dump.SessionsOpened)
	}
}

func TestRouterAllShardsDownTypedError(t *testing.T) {
	sh := startShard(t, 1)
	_, addr := startRouter(t, sh)
	sh.stop()

	c := dialRouter(t, addr)
	_, err := c.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
	if err == nil {
		t.Fatal("HELLO with no live shards should fail")
	}
	if !errors.Is(err, wire.ErrDraining) && !errors.Is(err, otserv.ErrLeaseExpired) {
		t.Fatalf("no-shard HELLO error is untyped: %v", err)
	}
}

// TestReattachCandidatesRacesStateFlips reads the candidate list while
// another goroutine flips a shard between dead and live, the interleaving
// a health probe and a token reconnect produce. Under -race it fails if
// reattachCandidates reads shard state outside the router's lock; in any
// mode the list must hold each routable shard once, the cached one first
// whenever it is routable.
func TestReattachCandidatesRacesStateFlips(t *testing.T) {
	r := New(Config{Probe: time.Hour})
	t.Cleanup(func() { r.Close() })
	r.mu.Lock()
	for _, addr := range []string{"a", "b", "c"} {
		r.shards[addr] = &shard{addr: addr, state: shardLive}
	}
	r.tokens["tok"] = "b"
	r.mu.Unlock()

	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := shardLive
			if i%2 == 0 {
				st = shardDead
			}
			r.setState("b", st, 0, false)
		}
	}()
	defer func() {
		close(stop)
		<-flipped
	}()
	for i := 0; i < 2000; i++ {
		got := r.reattachCandidates("tok")
		switch len(got) {
		case 2:
			if got[0] != "a" || got[1] != "c" {
				t.Fatalf("candidates %v with b dead, want [a c]", got)
			}
		case 3:
			if got[0] != "b" || got[1] != "a" || got[2] != "c" {
				t.Fatalf("candidates %v with b live, want [b a c]", got)
			}
		default:
			t.Fatalf("candidates %v", got)
		}
	}
}
