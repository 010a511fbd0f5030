package router

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
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
	r := New(Config{Shards: addrs, probe: 50 * time.Millisecond})
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

// arcShares returns the fraction of the hash circle each address owns.
// A key goes to the first virtual node at or after its hash, wrapping,
// so each node owns the arc from its predecessor's hash (exclusive) to
// its own; uint64 subtraction wraps the first node's arc past zero.
func arcShares(rg ring) map[string]float64 {
	shares := make(map[string]float64)
	n := len(rg.entries)
	for i, e := range rg.entries {
		shares[e.addr] += float64(e.hash-rg.entries[(i+n-1)%n].hash) / 0x1p64
	}
	return shares
}

// checkArcShares fails unless every address owns within 2x of an even
// share of the circle: the fleet's balance bar, held by the ring itself
// rather than by a sample of random tokens.
func checkArcShares(t *testing.T, addrs []string) map[string]float64 {
	t.Helper()
	shares := arcShares(buildRing(addrs))
	even := 1 / float64(len(addrs))
	for _, addr := range addrs {
		if got := shares[addr]; got > 2*even || got < even/2 {
			t.Errorf("%d shards: %s owns %.4f of the ring (beyond 2x of even %.4f)", len(addrs), addr, got, even)
		}
	}
	return shares
}

// TestRingArcSharesWithin2xOfEven checks the ring's placement itself:
// for fleets of 2 to 8 shards, on loopback ports and on host names,
// every shard's arc share is within 2x of even.
func TestRingArcSharesWithin2xOfEven(t *testing.T) {
	for k := 2; k <= 8; k++ {
		var local, named []string
		for i := 0; i < k; i++ {
			local = append(local, fmt.Sprintf("127.0.0.1:%d", 17121+i))
			named = append(named, fmt.Sprintf("shard-%d.fleet:7117", i))
		}
		checkArcShares(t, local)
		checkArcShares(t, named)
	}
}

// binomialBand returns the count range [lo, hi] that a Binomial(n, p)
// count leaves with probability at most eps: P(X < lo) <= eps/2 and
// P(X > hi) <= eps/2.
func binomialBand(n int, p, eps float64) (lo, hi int) {
	lgN, _ := math.Lgamma(float64(n + 1))
	pmf := func(k int) float64 {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(lgN - lgK - lgNK + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	for tail := 0.0; lo < n && tail+pmf(lo) <= eps/2; lo++ {
		tail += pmf(lo)
	}
	hi = n
	for tail := 0.0; hi > 0 && tail+pmf(hi) <= eps/2; hi-- {
		tail += pmf(hi)
	}
	return lo, hi
}

// TestPlacementBalanceAcrossShards opens sessions through the router.
// Placement is checked without a sampling tail: the ring over the
// shards' addresses gives each shard within 2x of an even arc share,
// and every session lands on the ring owner of its token. Tokens are
// random, so a shard's session count is Binomial(sessions, its arc
// share); the count check's band leaves each shard with probability
// <= 1e-6/3, so a correct router fails it in at most 1e-6 of runs.
// The concurrent case is the fleet's load shape: sessions open at once
// over a bounded set of shared client conns and alternate sender and
// receiver draws, with no failed open, no untyped error and no hang.
func TestPlacementBalanceAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		sessions, conns, draws int
		concurrent             bool
	}{
		{name: "sequential", sessions: 60, conns: 1},
		{name: "concurrent", sessions: 96, conns: 12, draws: 4, concurrent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := []*testShard{startShard(t, 1), startShard(t, 2), startShard(t, 3)}
			_, addr := startRouter(t, shards...)
			clients := make([]*otserv.Client, tc.conns)
			for i := range clients {
				clients[i] = dialRouter(t, addr)
			}

			var (
				mu       sync.Mutex
				perShard = map[uint64]int{}
				tokens   = map[string]uint64{} // session token -> shard id
				sheds    int
				errs     []error
			)
			// check sorts one draw or close result: typed sheds are the
			// contract's answer under load, anything else fails.
			check := func(i int, err error) {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
				case errors.Is(err, wire.ErrPoolDry), errors.Is(err, wire.ErrLeaseExpired):
					sheds++
				default:
					errs = append(errs, fmt.Errorf("session %d: untyped error: %w", i, err))
				}
			}
			// run is one session's life: open, alternate sender and
			// receiver draws, close.
			run := func(i int) {
				sess, err := clients[i%tc.conns].NewSession(otserv.SessionConfig{Params: "tiny", Depth: 256})
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("session %d: open: %w", i, err))
				} else {
					perShard[wire.ShardOf(sess.ID())]++
					tokens[sess.Token()] = wire.ShardOf(sess.ID())
				}
				mu.Unlock()
				if err != nil {
					return
				}
				for d := 0; d < tc.draws; d++ {
					if d%2 == 0 {
						_, err = sess.SenderCOTs(64)
					} else {
						_, _, err = sess.ReceiverCOTs(64)
					}
					check(i, err)
				}
				if tc.draws > 0 {
					check(i, sess.Close())
				}
			}
			if !tc.concurrent {
				for i := 0; i < tc.sessions; i++ {
					run(i)
				}
			} else {
				var wg sync.WaitGroup
				for i := 0; i < tc.sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						run(i)
					}(i)
				}
				done := make(chan struct{})
				go func() {
					wg.Wait()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatal("concurrent sessions still running after 60 s (hang)")
				}
			}

			for _, err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.FailNow()
			}
			if sheds > 0 {
				t.Logf("%d typed sheds", sheds)
			}
			if len(perShard) != 3 {
				t.Fatalf("placements landed on %d shards, want 3: %v", len(perShard), perShard)
			}
			addrs := make([]string, len(shards))
			for i, sh := range shards {
				addrs[i] = sh.addr
			}
			shares := checkArcShares(t, addrs)
			rg := buildRing(addrs)
			for token, id := range tokens {
				if owner := rg.sequence(token)[0]; owner != shards[id-1].addr {
					t.Fatalf("token %s landed on shard %d (%s), ring owner is %s", token, id, shards[id-1].addr, owner)
				}
			}
			for i, sh := range shards {
				lo, hi := binomialBand(tc.sessions, shares[sh.addr], 1e-6/3)
				if got := perShard[uint64(i+1)]; got < lo || got > hi {
					t.Fatalf("shard %d holds %d of %d sessions, outside [%d, %d] for arc share %.4f: %v",
						i+1, got, tc.sessions, lo, hi, shares[sh.addr], perShard)
				}
			}
		})
	}
}

// TestStalledShardProbeTimesOut points the router at a shard address
// that accepts TCP but never answers. Each probe must give up within
// dialTimeout: New returns with the shard dead, and Close returns even
// with a health-loop probe of that shard in flight.
func TestStalledShardProbeTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range held {
			nc.Close()
		}
	})

	const bound = dialTimeout + 3*time.Second
	built := make(chan *Router, 1)
	go func() { built <- New(Config{Shards: []string{ln.Addr().String()}, probe: 50 * time.Millisecond}) }()
	var r *Router
	select {
	case r = <-built:
	case <-time.After(bound):
		t.Fatalf("New still blocked after %v probing a shard that never answers", bound)
	}
	if views := r.Shards(); len(views) != 1 || views[0].State != "dead" {
		t.Fatalf("stalled shard: %+v, want one dead shard", views)
	}
	// Let the health loop start re-probing the stalled shard.
	time.Sleep(200 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(bound):
		t.Fatalf("Close still blocked after %v behind a stalled probe", bound)
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
		if !errors.Is(err, wire.ErrLeaseExpired) {
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
	if !errors.Is(err, wire.ErrLeaseExpired) {
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
	if !errors.Is(err, wire.ErrLeaseExpired) {
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

	// A token reconnect finds the session there too: the draining shard
	// is off the ring but follows it in the reconnect order.
	re, err := dialRouter(t, addr).AttachToken(byShard[1].Token(), byShard[1].SenderToken())
	if err != nil {
		t.Fatalf("reconnect to a session on the draining shard: %v", err)
	}
	if re.ID() != byShard[1].ID() {
		t.Fatalf("reconnect landed on session %d, want %d", re.ID(), byShard[1].ID())
	}
	if _, err := re.SenderCOTs(32); err != nil {
		t.Fatalf("draw after reconnect on draining shard: %v", err)
	}
}

// TestReconnectAfterShardAdded: a live AddShard moves arcs of the ring,
// so a session's token can come to hash onto the new shard, which never
// held it. A token reconnect walks on past it to the shard that does
// and resumes the same session mid-stream.
func TestReconnectAfterShardAdded(t *testing.T) {
	shards := []*testShard{startShard(t, 1), startShard(t, 2), startShard(t, 3)}
	added := startShard(t, 4)
	r, addr := startRouter(t, shards...)
	grown := buildRing([]string{shards[0].addr, shards[1].addr, shards[2].addr, added.addr})

	// Open sessions until one's token moves to the added shard.
	c1 := dialRouter(t, addr)
	var sess *otserv.Session
	for i := 0; sess == nil; i++ {
		if i == 200 {
			t.Fatal("no token of 200 sessions moves to the added shard")
		}
		s, err := c1.NewSession(otserv.SessionConfig{Params: "tiny", Depth: 512})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if grown.sequence(s.Token())[0] == added.addr {
			sess = s
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	delta, _ := sess.Delta()
	z1, err := sess.SenderCOTs(64)
	if err != nil {
		t.Fatalf("first draw: %v", err)
	}

	r.AddShard(added.addr)
	if owner := r.placement(sess.Token())[0]; owner != added.addr {
		t.Fatalf("after AddShard the token's ring owner is %s, want the added shard %s", owner, added.addr)
	}
	c1.Close()

	c2 := dialRouter(t, addr)
	re, err := c2.AttachToken(sess.Token(), sess.SenderToken())
	if err != nil {
		t.Fatalf("reconnect after AddShard: %v", err)
	}
	if re.ID() != sess.ID() {
		t.Fatalf("reconnect landed on session %d, want %d", re.ID(), sess.ID())
	}
	z2, err := re.SenderCOTs(64)
	if err != nil {
		t.Fatalf("post-reconnect draw: %v", err)
	}
	rx, err := c2.AttachToken(sess.Token(), sess.ReceiverToken())
	if err != nil {
		t.Fatalf("receiver reconnect: %v", err)
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
	if !errors.Is(err, wire.ErrDraining) && !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("no-shard HELLO error is untyped: %v", err)
	}
}

// TestReattachCandidatesRacesStateFlips reads the candidate list while
// another goroutine cycles a shard through dead, live and draining, the
// interleaving a health probe, a drain and a token reconnect produce.
// Under -race it fails if reattachCandidates reads shard state or the
// ring outside the router's lock; in any mode each list must be the
// ring sequence for one of b's states, holding each routable shard
// exactly once, a draining b after the ring.
func TestReattachCandidatesRacesStateFlips(t *testing.T) {
	r := New(Config{probe: time.Hour})
	t.Cleanup(func() { r.Close() })
	r.mu.Lock()
	for _, addr := range []string{"a", "b", "c"} {
		r.shards[addr] = &shard{addr: addr, state: shardLive}
	}
	r.rebuildLocked()
	r.mu.Unlock()

	withoutB := buildRing([]string{"a", "c"}).sequence("tok")
	want := map[string]bool{
		fmt.Sprint(withoutB): true, // b dead
		fmt.Sprint(buildRing([]string{"a", "b", "c"}).sequence("tok")): true, // b live
		fmt.Sprint(append(withoutB, "b")):                              true, // b draining
	}
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		states := []shardState{shardDead, shardLive, shardDraining}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.setState("b", states[i%len(states)], 0, false)
		}
	}()
	defer func() {
		close(stop)
		<-flipped
	}()
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		got := fmt.Sprint(r.reattachCandidates("tok"))
		if !want[got] {
			t.Fatalf("candidates %s, want one of %v", got, want)
		}
		seen[got] = true
	}
	t.Logf("saw %d of the 3 candidate lists", len(seen))
}
