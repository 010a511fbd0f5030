package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ironman"
	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/otserv"
	"ironman/internal/otserv/router"
	"ironman/internal/otserv/wire"
	"ironman/internal/transport"
)

const (
	fleetShards  = 3
	fleetClients = 2 // min(nproc, 2) on the reference box; never more
	smokeName    = "smoke"
)

// fleetResolve serves Table 4 plus the CI-scale set under "smoke".
func fleetResolve(name string) (ferret.Params, error) {
	if name == smokeName {
		return smokeParams(), nil
	}
	return ferret.ParamsByName(name)
}

func fleetParamsName(smoke bool) string {
	if smoke {
		return smokeName
	}
	return "2^20"
}

// fleet is the serving stack both fleet workloads drive: three
// in-process shards behind the consistent-hash router, every hop on
// loopback TCP.
type fleet struct {
	shards []*otserv.Server
	addrs  []string // shard listen addresses
	router *router.Router
	addr   string // router listen address
	serve  sync.WaitGroup
}

func bootFleet() (*fleet, error) {
	f := &fleet{}
	listen := func(serve func(net.Listener) error) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		f.serve.Add(1)
		go func() {
			defer f.serve.Done()
			// Serve returns when close() shuts its server down.
			_ = serve(ln)
		}()
		return ln.Addr().String(), nil
	}
	for i := 0; i < fleetShards; i++ {
		srv := otserv.NewServer(otserv.Config{
			Resolve: fleetResolve,
			Workers: workers,
			ShardID: uint64(i + 1),
		})
		f.shards = append(f.shards, srv)
		addr, err := listen(srv.Serve)
		if err != nil {
			f.close()
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	// Shards are listening, so the router's first probe puts all three
	// on the ring before it accepts a client.
	f.router = router.New(router.Config{Shards: f.addrs})
	var err error
	if f.addr, err = listen(f.router.Serve); err != nil {
		f.close()
		return nil, err
	}
	for _, v := range f.router.Shards() {
		if v.State != "live" {
			f.close()
			return nil, fmt.Errorf("fleet: shard %s is %s after boot", v.Addr, v.State)
		}
	}
	return f, nil
}

func (f *fleet) close() {
	if f.router != nil {
		_ = f.router.Close()
	}
	for _, s := range f.shards {
		_ = s.Close()
	}
	f.serve.Wait()
}

// dump sums the shard-side counters the per-layer report quotes.
func (f *fleet) dump() (opened []uint64, sheds uint64) {
	for _, s := range f.shards {
		d := s.Sessions().Dump()
		opened = append(opened, d.SessionsOpened)
		sheds += d.QuotaSheds + d.DrySheds
	}
	return opened, sheds
}

// fleetConn is one client connection; the benchmark keeps the
// transport so it can read the bytes that crossed it.
type fleetConn struct {
	conn transport.Conn
	c    *otserv.Client
}

func dialFleet(addr string) (*fleetConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewTCP(nc)
	return &fleetConn{conn: conn, c: otserv.NewClient(conn)}, nil
}

// drawPair draws n correlations from both halves of a creator's
// session, sender half first, and returns the two round-trip times.
func drawPair(s *otserv.Session, n int) (z []block.Block, bits []bool, y []block.Block, lats [2]time.Duration, err error) {
	t0 := time.Now()
	z, err = s.SenderCOTs(n)
	lats[0] = time.Since(t0)
	if err != nil {
		return
	}
	t0 = time.Now()
	bits, y, err = s.ReceiverCOTs(n)
	lats[1] = time.Since(t0)
	return
}

// dispensed is the set of sender-half blocks already handed out: a
// block seen twice is a correlation dispensed twice, the one
// catastrophic failure of an OT service.
type dispensed struct {
	mu   sync.Mutex
	seen map[block.Block]struct{}
}

// fresh records blocks and reports whether every one was new.
func (d *dispensed) fresh(blocks ...block.Block) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[block.Block]struct{})
	}
	ok := true
	for _, b := range blocks {
		if _, dup := d.seen[b]; dup {
			ok = false
		}
		d.seen[b] = struct{}{}
	}
	return ok
}

// checkDraw verifies one pair of halves under the session's Δ: in full
// (and every block into the dispensed set) when full is set, first and
// last correlation otherwise.
func (d *dispensed) checkDraw(s *otserv.Session, n int, full bool, z []block.Block, bits []bool, y []block.Block) bool {
	delta, ok := s.Delta()
	if !ok || !verified(delta, n, full, z, bits, y) {
		return false
	}
	if full {
		return d.fresh(z...)
	}
	return d.fresh(z[0], z[n-1])
}

type fleetSizes struct {
	Shards   int    `json:"shards"`
	Conns    int    `json:"client_conns"`
	Params   string `json:"params"`
	DrawN    int    `json:"cots_per_draw"`
	Burst    int    `json:"draw_pairs_per_op,omitempty"` // steady only
	Draws    int    `json:"draws_per_session,omitempty"` // churn only
	Workers  int    `json:"workers"`
	Prefetch string `json:"prefetch"`
}

func fleetWorkload(name, why string, drawN func(smoke bool) int, churn bool, probes []probe, aliases []alias) *workload {
	return &workload{
		name:    name,
		why:     why,
		aliases: aliases,
		lane:    0, // client 0; the two clients are symmetric
		probes:  probes,
		sizes: func(smoke bool) any {
			sz := fleetSizes{Shards: fleetShards, Conns: fleetClients, Params: fleetParamsName(smoke),
				DrawN: drawN(smoke), Workers: workers, Prefetch: "server default (depth 2)"}
			if churn {
				sz.Draws = 2
			} else {
				sz.Burst = steadyBurst(smoke)
			}
			return sz
		},
		setup: func(e *env) (instance, error) {
			f, err := bootFleet()
			if err != nil {
				return nil, err
			}
			x := &fleetInst{rec: e.rec, f: f, churn: churn, n: drawN(e.smoke), burst: steadyBurst(e.smoke)}
			r := e.rng(0)
			for c := 0; c < fleetClients; c++ {
				fc, err := dialFleet(f.addr)
				if err != nil {
					x.close()
					return nil, err
				}
				x.conns = append(x.conns, fc)
				x.cfgs = append(x.cfgs, otserv.SessionConfig{
					Params:  fleetParamsName(e.smoke),
					Workers: workers,
					Tenant:  fmt.Sprintf("tenant-%d", r.Intn(4)),
				})
				x.sess = append(x.sess, nil)
				x.drawn = append(x.drawn, false)
				if !churn {
					if x.sess[c], err = fc.c.NewSession(x.cfgs[c]); err != nil {
						x.close()
						return nil, err
					}
				}
			}
			return x, nil
		},
	}
}

var fleetSteady = fleetWorkload("fleet-steady",
	"3 otserv shards + router on loopback TCP, 2 client conns each holding one long 2^20 session, op = 256 draws of 8192 COTs from each half: pool, refill and Extend under the wire",
	func(smoke bool) int {
		if smoke {
			return 512
		}
		return 8192
	}, false,
	[]probe{probeLPN, probePool, probeTCPRTT, probeService},
	nil)

var fleetChurn = fleetWorkload("fleet-churn",
	"same fleet and conns, but op = open -> draw 4096 from each half -> close on 2^20: HELLO and set-up cost (fresh pair, lpn.New, first Extend) dominates, so set-up amortisation shows here",
	func(smoke bool) int {
		if smoke {
			return 256
		}
		return 4096
	}, true,
	[]probe{probeLPNCodegen, probeTCPRTT, probeService},
	[]alias{{name: "sessions_per_s", unit: "1/s", of: "ops_per_s", scale: 1}})

// steadyBurst is the draw pairs in one fleet-steady op: two 2^20
// batches from each half.
func steadyBurst(smoke bool) int {
	if smoke {
		return 4
	}
	return 256
}

type fleetInst struct {
	rec   *recorder
	f     *fleet
	churn bool
	n     int // correlations per draw
	burst int // steady: draw pairs per op
	conns []*fleetConn
	cfgs  []otserv.SessionConfig
	sess  []*otserv.Session // steady: the client's long session
	drawn []bool            // steady: the client has drawn from its session
	seen  dispensed

	mu sync.Mutex
	// In-situ latencies over the timed window, milliseconds: latMS is
	// single draws (steady) or HELLOs (churn).
	latMS, firstDrawMS, closeMS []float64
	leaseErrs                   int
}

func (x *fleetInst) clients() int { return len(x.conns) }

func (x *fleetInst) op(c, iter int) (sample, error) {
	root := x.rec.begin(opSpan, span{}, iter, c)
	defer root.end()
	if x.churn {
		return x.churnOp(c, iter, root)
	}
	return x.steadyOp(c, iter, root)
}

// steadyOp is one burst of draws on the client's long session: burst
// times, 8192 from the sender half then 8192 from the receiver half.
// The burst is the operation because a single draw's median is
// bimodal: it lands inside or outside a refill on the same two cores,
// and the median flips between runs (27 % spread measured; 41 % for a
// burst the length of one refill). A burst of two batches spans about
// four refills and holds 5 %. Single draws are the per-layer
// otserv.draw_p50_ms / draw_p99_ms.
func (x *fleetInst) steadyOp(c, iter int, root span) (sample, error) {
	var s sample
	var draws []float64
	burst := x.burst
	if iter < 0 {
		burst = 1 // un-timed ops: the same draws, not grouped
	}
	for i := 0; i < burst; i++ {
		sp := x.rec.begin("otserv.draw", root, iter, c)
		z, bits, y, lats, err := drawPair(x.sess[c], x.n)
		sp.end()
		s.busy += lats[0] + lats[1]
		if err != nil {
			x.countLease(err)
			return s, err
		}
		s.cots += int64(x.n)
		draws = append(draws, ms(lats[0]), ms(lats[1]))
		chk := x.rec.begin("verify", root, iter, c)
		// Whole draw on the session's first pair (the warm-up op) and on
		// the first pair of the first timed op, first and last
		// correlation otherwise, so the dispensed set grows by two blocks
		// a draw and stays out of the memory metrics.
		full := i == 0 && (iter == 0 || !x.drawn[c])
		x.drawn[c] = true
		if !x.seen.checkDraw(x.sess[c], x.n, full, z, bits, y) {
			s.failed = true
		}
		chk.end()
	}
	if iter >= 0 {
		x.mu.Lock()
		x.latMS = append(x.latMS, draws...)
		x.mu.Unlock()
	}
	return s, nil
}

// churnOp is one session lifetime: HELLO, one draw per half, CLOSE.
// The lifetime is the operation; the HELLO alone (about twenty
// samples a run, 12-21 % spread measured) is the per-layer
// otserv.hello_p50_ms / hello_p90_ms.
func (x *fleetInst) churnOp(c, iter int, root span) (sample, error) {
	s := sample{cots: int64(x.n)}
	sp := x.rec.begin("otserv.hello", root, iter, c)
	t0 := time.Now()
	sess, err := x.conns[c].c.NewSession(x.cfgs[c])
	hello := time.Since(t0)
	sp.end()
	s.busy = hello
	if err != nil {
		x.countLease(err)
		return s, err
	}
	sp = x.rec.begin("otserv.draw", root, iter, c)
	z, bits, y, lats, err := drawPair(sess, x.n)
	sp.end()
	s.busy += lats[0] + lats[1]
	if err != nil {
		x.countLease(err)
		return s, err
	}
	sp = x.rec.begin("otserv.close", root, iter, c)
	t0 = time.Now()
	err = sess.Close()
	closed := time.Since(t0)
	sp.end()
	s.busy += closed
	if err != nil {
		return s, err
	}
	if iter >= 0 {
		x.mu.Lock()
		x.latMS = append(x.latMS, ms(hello))
		x.firstDrawMS = append(x.firstDrawMS, ms(lats[0]))
		x.closeMS = append(x.closeMS, ms(closed))
		x.mu.Unlock()
	}
	chk := x.rec.begin("verify", root, iter, c)
	// Every churn draw is small and a session's first: check it whole.
	s.failed = !x.seen.checkDraw(sess, x.n, true, z, bits, y)
	chk.end()
	return s, nil
}

func (x *fleetInst) countLease(err error) {
	if errors.Is(err, wire.ErrLeaseExpired) {
		x.mu.Lock()
		x.leaseErrs++
		x.mu.Unlock()
	}
}

func (x *fleetInst) wire() int64 {
	var total int64
	for _, fc := range x.conns {
		total += fc.conn.Stats().TotalBytes()
	}
	return total
}

func (x *fleetInst) finish(nodes []node) (int, map[string]float64) {
	opened, sheds := x.f.dump()
	layers := map[string]float64{
		"otserv.sheds":        float64(sheds),
		"otserv.lease_errors": float64(x.leaseErrs),
	}
	var total, most uint64
	for _, n := range opened {
		total += n
		if n > most {
			most = n
		}
	}
	if total > 0 {
		layers["router.balance_max_over_even"] = float64(most) * float64(len(opened)) / float64(total)
	}
	if x.churn {
		layers["otserv.hello_p50_ms"] = median(x.latMS)
		layers["otserv.hello_p90_ms"] = percentile(x.latMS, 900)
		layers["otserv.first_draw_ms"] = median(x.firstDrawMS)
		layers["otserv.close_ms"] = median(x.closeMS)
	} else {
		layers["otserv.draw_p50_ms"] = median(x.latMS)
		layers["otserv.draw_p99_ms"] = percentile(x.latMS, 990)
		var stats []ironman.PoolStats
		for _, srv := range x.f.shards {
			for _, ss := range srv.Sessions().Dump().PerSession {
				stats = append(stats, halfStats(ss.Sender), halfStats(ss.Receiver))
			}
		}
		poolLayers(layers, stats...)
	}
	// A shed is a refused request: it already failed its op, so it is
	// not counted a second time here.
	return 0, layers
}

func halfStats(h wire.HalfStats) ironman.PoolStats {
	return ironman.PoolStats{Draws: h.Draws, BlockedDraws: h.BlockedDraws, Refills: h.Refills,
		BlockedTime: time.Duration(h.BlockedNS)}
}

func (x *fleetInst) close() {
	for c, fc := range x.conns {
		if x.sess[c] != nil {
			_ = x.sess[c].Close()
		}
		_ = fc.c.Close()
	}
	x.f.close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
