package main

import (
	"fmt"
	"net"
	"time"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/gmw"
	"ironman/internal/iknp"
	"ironman/internal/lpn"
	"ironman/internal/mpcot"
	"ironman/internal/otserv"
	"ironman/internal/otserv/session"
	"ironman/internal/pool"
	"ironman/internal/prg"
	"ironman/internal/spcot"
	"ironman/internal/transport"
)

// A probe re-runs one module's public entry points from outside, at
// the shape the workload drives them (same Params, Workers and seed
// source), under spans of its own, and files the module's per-layer
// numbers. Probes run after the traced window, on an otherwise idle
// process.
type probe func(px *probeCtx) error

type probeCtx struct {
	rec    *recorder
	smoke  bool
	stream *aesprg.Stream // input generation, from -seed
	layers map[string]float64
}

// probeLane is the trace lane of probe spans that have no protocol
// party of their own.
const probeLane = 900

// sink keeps the compiler from discarding a probe's pure computation.
var sink block.Block

func (px *probeCtx) reps() int {
	if px.smoke {
		return 1
	}
	return 3
}

// scale picks a probe's batch size by size class.
func (px *probeCtx) scale(full, smoke int) int {
	if px.smoke {
		return smoke
	}
	return full
}

func (px *probeCtx) params() (ferret.Params, error) { return benchParams(px.smoke) }

// pipePair is an in-process conn pair and the func that closes both
// ends (a probe's conns carry no state worth a close error).
func pipePair() (a, b transport.Conn, done func()) {
	a, b = transport.Pipe()
	return a, b, func() { _ = a.Close(); _ = b.Close() }
}

// timed runs prep (untimed, may be nil) then f under a span, reps()
// times, and returns f's median seconds.
func (px *probeCtx) timed(name string, lane int, prep, f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < px.reps(); i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		sp := px.rec.begin(name, span{}, -1, lane)
		t0 := time.Now()
		err := f()
		secs = append(secs, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// probePRG times the three primitives under every tree and hash in
// the repository, per 128-bit output block.
func probePRG(px *probeCtx) error {
	n := px.scale(1<<16, 1<<10)
	for name, p := range map[string]prg.PRG{
		"prg.chacha8x4_ns_per_block": prg.New(prg.ChaCha8, 4),
		"prg.aes2_ns_per_block":      prg.New(prg.AES, 2),
	} {
		kids := make([]block.Block, p.Arity())
		parent := px.stream.Block()
		s, err := px.timed("prg.expand", probeLane, nil, func() error {
			for i := 0; i < n; i++ {
				p.Expand(parent, kids)
				parent = kids[0]
			}
			sink = parent
			return nil
		})
		if err != nil {
			return err
		}
		px.layers[name] = s * 1e9 / float64(n*p.Arity())
	}
	h := aesprg.NewHash()
	x := px.stream.Block()
	s, err := px.timed("aesprg.hash", probeLane, nil, func() error {
		for i := 0; i < n; i++ {
			x = h.Sum(x, uint64(i))
		}
		sink = x
		return nil
	})
	px.layers["aesprg.hash_ns_per_block"] = s * 1e9 / float64(n)
	return err
}

// probeGGM expands and reconstructs one Extend's worth of trees (T
// trees of L leaves, 4-ary ChaCha8), single-threaded, per leaf.
func probeGGM(px *probeCtx) error {
	p, err := px.params()
	if err != nil {
		return err
	}
	g := prg.New(prg.ChaCha8, 4)
	arities := ggm.LevelArities(p.L, g.Arity())
	seeds := make([]block.Block, p.T)
	px.stream.Blocks(seeds)
	var tree *ggm.Tree
	s, err := px.timed("ggm.expand", probeLane, nil, func() error {
		for _, seed := range seeds {
			tree = ggm.Expand(g, seed, arities)
		}
		return nil
	})
	if err != nil {
		return err
	}
	perLeaf := 1e9 / float64(p.T*p.L)
	px.layers["ggm.expand_ns_per_leaf"] = s * perLeaf
	sums := tree.AllLevelSums()
	alpha := int(px.stream.Uint32n(uint32(p.L)))
	s, err = px.timed("ggm.reconstruct", probeLane, nil, func() error {
		for range seeds {
			sink = ggm.Reconstruct(g, arities, alpha, sums).Leaves[0]
		}
		return nil
	})
	px.layers["ggm.reconstruct_ns_per_leaf"] = s * perLeaf
	return err
}

// probeMPCOT runs the interactive SPCOT phase of one Extend exactly as
// ferret drives it: SendSeeded beside ReceiveWorkers over a pipe, and
// one single tree for spcot.tree_us.
func probeMPCOT(px *probeCtx) error {
	p, err := px.params()
	if err != nil {
		return err
	}
	g := prg.New(prg.ChaCha8, 4)
	delta := px.stream.Block()
	cfgS := mpcot.Config{N: p.N, Leaves: p.L, T: p.T, Trace: px.rec.tracer(), TID: ferret.SenderTID}
	cfgR := cfgS
	cfgR.TID = ferret.ReceiverTID
	seeds := make([]block.Block, p.T)
	px.stream.Blocks(seeds)
	alphas := cfgR.AlphasFrom(px.stream)

	a, b, done := pipePair()
	defer done()
	var sp *cot.SenderPool
	var rp *cot.ReceiverPool
	deal := func(n int) func() error {
		return func() (err error) {
			sp, rp, err = cot.PoolsFromStream(px.stream, delta, n)
			return
		}
	}
	var a0, b0 transport.Stats
	s, err := px.timed("mpcot", ferret.ReceiverTID, func() error {
		a0, b0 = a.Stats(), b.Stats()
		return deal(cfgS.COTBudget())()
	}, func() error {
		return both(
			func() error {
				side := px.rec.begin("mpcot.send", span{}, -1, ferret.SenderTID)
				defer side.end()
				_, err := mpcot.SendSeeded(a, sp, aesprg.NewHash(), g, cfgS, seeds, workers)
				return err
			},
			func() error {
				_, err := mpcot.ReceiveWorkers(b, rp, aesprg.NewHash(), g, cfgR, alphas, workers)
				return err
			},
		)
	})
	if err != nil {
		return err
	}
	px.layers["mpcot.busy_s"] = s
	px.layers["mpcot.flights"] = float64(a.Stats().Flights - a0.Flights + b.Stats().Flights - b0.Flights)
	px.layers["mpcot.wire_bytes"] = float64(a.Stats().TotalBytes() - a0.TotalBytes())

	trees := px.scale(32, 2)
	s, err = px.timed("spcot.tree", probeLane, deal(trees*spcot.COTBudget(p.L)), func() error {
		return both(
			func() error {
				for i := 0; i < trees; i++ {
					if _, err := spcot.SendWithSeed(a, sp, aesprg.NewHash(), g, p.L, seeds[i]); err != nil {
						return err
					}
				}
				return nil
			},
			func() error {
				for i := 0; i < trees; i++ {
					if _, err := spcot.Receive(b, rp, aesprg.NewHash(), g, p.L, alphas[i]-i*p.L); err != nil {
						return err
					}
				}
				return nil
			},
		)
	})
	px.layers["spcot.tree_us"] = s * 1e6 / float64(trees)
	return err
}

// lpnBytesPerRow is the computed traffic of one EncodeBlocks row: D
// gathered 16-byte blocks of r, D 4-byte column indices, 16 bytes of w
// streamed in and 16 bytes of output streamed out (README, "LPN byte
// formula").
func lpnBytesPerRow(d int) int { return 20*d + 32 }

// probeLPNCodegen times the code derivation every ferret endpoint
// pair pays at set-up (and every dispenser HELLO pays today).
func probeLPNCodegen(px *probeCtx) error {
	_, err := px.lpnCode()
	return err
}

func (px *probeCtx) lpnCode() (*lpn.Code, error) {
	p, err := px.params()
	if err != nil {
		return nil, err
	}
	var code *lpn.Code
	s, err := px.timed("lpn.new", probeLane, nil, func() error {
		code = lpn.New(ferret.DefaultCodeSeed, p.N, p.K, p.D)
		return nil
	})
	px.layers["lpn.codegen_s"] = s
	return code, err
}

// probeLPN runs the encode phase of one Extend the way the two parties
// run it side by side: the sender encodes blocks while the receiver
// encodes blocks and then choice bits, Workers goroutines each. The
// receiver's two calls are the ones timed (it is the critical path).
func probeLPN(px *probeCtx) error {
	code, err := px.lpnCode()
	if err != nil {
		return err
	}
	p, _ := px.params()
	party := func() (out, r, w []block.Block) {
		out, r, w = make([]block.Block, p.N), make([]block.Block, p.K), make([]block.Block, p.N)
		px.stream.Blocks(r)
		px.stream.Blocks(w)
		return
	}
	outS, rS, wS := party()
	outR, rR, wR := party()
	e, bitsOut := make([]bool, p.K), make([]bool, p.N)
	px.stream.Bits(e)
	points := make([]int, p.T)
	for i := range points {
		points[i] = int(px.stream.Uint32n(uint32(p.N)))
	}
	var blocksS, bitsS []float64
	_, err = px.timed("lpn", ferret.ReceiverTID, nil, func() error {
		return both(
			func() error {
				sp := px.rec.begin("lpn.encode_blocks", span{}, -1, ferret.SenderTID)
				code.EncodeBlocksParallel(outS, rS, wS, workers)
				sp.end()
				return nil
			},
			func() error {
				sp := px.rec.begin("lpn.encode_blocks", span{}, -1, ferret.ReceiverTID)
				t0 := time.Now()
				code.EncodeBlocksParallel(outR, rR, wR, workers)
				blocksS = append(blocksS, time.Since(t0).Seconds())
				sp.end()
				sp = px.rec.begin("lpn.encode_bits", span{}, -1, ferret.ReceiverTID)
				t0 = time.Now()
				err := code.EncodeBitsParallel(bitsOut, e, points, workers)
				bitsS = append(bitsS, time.Since(t0).Seconds())
				sp.end()
				return err
			},
		)
	})
	if err != nil {
		return err
	}
	sink = outS[0].Xor(outR[0])
	px.layers["lpn.encode_blocks_s"] = median(blocksS)
	px.layers["lpn.encode_bits_s"] = median(bitsS)
	px.layers["lpn.encode_blocks_gbps"] = float64(p.N*lpnBytesPerRow(p.D)) / median(blocksS) / 1e9
	return nil
}

// probeBase times what a real (non-dealt) endpoint pair pays before
// its first Extend: the 128 base OTs inside iknp's constructors, then
// the IKNP extension that fills ferret's first reserve.
func probeBase(px *probeCtx) error {
	p, err := px.params()
	if err != nil {
		return err
	}
	a, b, done := pipePair()
	defer done()
	var s *iknp.Sender
	var r *iknp.Receiver
	setup, err := px.timed("baseot.setup", probeLane, nil, func() error {
		return both(
			func() (err error) { s, err = iknp.NewSender(a, px.stream.Block()); return },
			func() (err error) { r, err = iknp.NewReceiver(b); return },
		)
	})
	if err != nil {
		return err
	}
	px.layers["baseot.setup_ms"] = setup * 1e3
	n := p.Reserve()
	choices := make([]bool, n)
	px.stream.Bits(choices)
	ext, err := px.timed("iknp.extend", probeLane, nil, func() error {
		return both(
			func() error { _, err := s.Extend(n); return err },
			func() error { _, err := r.Extend(choices); return err },
		)
	})
	px.layers["iknp.extend_ns_per_ot"] = ext * 1e9 / float64(n)
	return err
}

// pingPong is the median round trip of a one-byte message over a
// connected pair, in microseconds.
func (px *probeCtx) pingPong(name string, a, b transport.Conn) (float64, error) {
	trips := px.scale(2000, 50)
	rtts := make([]float64, 0, trips)
	sp := px.rec.begin(name, span{}, -1, probeLane)
	defer sp.end()
	err := both(
		func() error {
			for i := 0; i < trips; i++ {
				//ironman:allow(detrange) the clock times the round trip; the byte on the wire is constant
				t0 := time.Now()
				if err := a.Send([]byte{1}); err != nil {
					return err
				}
				if _, err := a.Recv(); err != nil {
					return err
				}
				//ironman:allow(detrange) as above: measured, never sent
				rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
			}
			return nil
		},
		func() error {
			for i := 0; i < trips; i++ {
				m, err := b.Recv()
				if err != nil {
					return err
				}
				if err := b.Send(m); err != nil {
					return err
				}
			}
			return nil
		},
	)
	return median(rtts), err
}

func probePipeRTT(px *probeCtx) error {
	a, b, done := pipePair()
	defer done()
	rtt, err := px.pingPong("transport.pipe_rtt", a, b)
	px.layers["transport.pipe_rtt_us"] = rtt
	return err
}

func probeTCPRTT(px *probeCtx) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var near, far net.Conn
	err = both(
		func() (err error) { far, err = ln.Accept(); return },
		func() (err error) { near, err = net.Dial("tcp", ln.Addr().String()); return },
	)
	if near != nil {
		defer near.Close()
	}
	if far != nil {
		defer far.Close()
	}
	if err != nil {
		return err
	}
	rtt, err := px.pingPong("transport.tcp_rtt", transport.NewTCP(near), transport.NewTCP(far))
	px.layers["transport.tcp_rtt_us"] = rtt
	return err
}

// probePool times a draw that never waits: a dealt ferret pair behind
// a pool.Dealt, warmed by one blocking draw, then fewer correlations
// drawn than one batch holds.
func probePool(px *probeCtx) error {
	p, err := px.params()
	if err != nil {
		return err
	}
	backend, err := extension.ByName(extension.Default)
	if err != nil {
		return err
	}
	connS, connR, done := pipePair()
	defer done()
	s, r, err := backend.DealPair(connS, connR, px.stream.Block(), p,
		extension.Options{Workers: workers, Seed: px.stream.Block()})
	if err != nil {
		return err
	}
	dealt := pool.NewDealt(func() ([]block.Block, []bool, []block.Block, error) {
		return extension.ExtendLockstep(s, r)
	}, pool.Config{Depth: 1})
	defer func() { _ = dealt.Close() }()
	n := px.scale(8192, 64)
	draws := backend.Batch(p) / n / 2
	if draws > 64 {
		draws = 64
	}
	ns := make([]float64, 0, draws)
	sp := px.rec.begin("pool.draw", span{}, -1, probeLane)
	defer sp.end()
	for i := 0; i <= draws; i++ {
		t0 := time.Now()
		if _, err := dealt.SenderCOTs(n); err != nil {
			return err
		}
		d := time.Since(t0)
		if _, _, err := dealt.ReceiverCOTs(n); err != nil {
			return err
		}
		if i > 0 { // draw 0 is the warm-up that waits for the first batch
			ns = append(ns, float64(d))
		}
	}
	px.layers["pool.draw_prewarmed_ns"] = median(ns)
	return nil
}

// probeCOT times the two derandomisation protocols every consumer
// sits on: bit-packed chosen OT (gmw AND gates) and, when words is
// set, variable-width word OT (arith Gilboa products).
func probeCOT(words bool) probe {
	return func(px *probeCtx) error {
		a, b, done := pipePair()
		defer done()
		delta := px.stream.Block()
		var sp *cot.SenderPool
		var rp *cot.ReceiverPool
		n := px.scale(1<<16, 1<<8)
		limbs := make([]uint64, 2*n)
		for i := range limbs {
			limbs[i] = px.stream.Uint64()
		}
		m0, m1 := limbs[:n], limbs[n:]
		name, metric := "cot.chosen_bits", "cot.chosen_bits_ns_per_ot"
		send := func() error { return cot.SendChosenBits(a, sp, aesprg.NewHash(), m0, m1, n) }
		recv := func() error {
			_, err := cot.ReceiveChosenBits(b, rp, aesprg.NewHash(), m0, n)
			return err
		}
		if words {
			n = px.scale(1<<14, 1<<8)
			m0, m1 = limbs[:n], limbs[n:2*n]
			widths := make([]int, n)
			for i := range widths {
				widths[i] = 64 - i%64 // one Gilboa product's ladder
			}
			name, metric = "cot.chosen_words", "cot.chosen_words_ns_per_ot"
			send = func() error { return cot.SendChosenWords(a, sp, aesprg.NewHash(), m0, m1, widths) }
			recv = func() error {
				_, err := cot.ReceiveChosenWords(b, rp, aesprg.NewHash(), m0, widths)
				return err
			}
		}
		s, err := px.timed(name, probeLane, func() (err error) {
			sp, rp, err = cot.PoolsFromStream(px.stream, delta, n)
			return
		}, func() error { return both(send, recv) })
		px.layers[metric] = s * 1e9 / float64(n)
		return err
	}
}

// probeGMW times one batched AND layer between two parties.
func probeGMW(px *probeCtx) error {
	n := px.scale(1<<16, 1<<8)
	connA, connB, done := pipePair()
	defer done()
	dAB, dBA := px.stream.Block(), px.stream.Block()
	var pa, pb *gmw.Party
	bits := make([]bool, n)
	px.stream.Bits(bits)
	s, err := px.timed("gmw.and", probeLane, func() error {
		sAB, rAB, err := cot.PoolsFromStream(px.stream, dAB, n)
		if err != nil {
			return err
		}
		sBA, rBA, err := cot.PoolsFromStream(px.stream, dBA, n)
		if err != nil {
			return err
		}
		return both(
			func() (err error) { pa, err = gmw.NewParty(connA, sAB, rBA, true); return },
			func() (err error) { pb, err = gmw.NewParty(connB, sBA, rAB, false); return },
		)
	}, func() error {
		return both(
			func() error {
				_, err := pa.AndPacked(pa.NewPrivatePacked(bits, true), pa.NewPrivatePacked(bits, false))
				return err
			},
			func() error {
				_, err := pb.AndPacked(pb.NewPrivatePacked(bits, false), pb.NewPrivatePacked(bits, true))
				return err
			},
		)
	})
	px.layers["gmw.and_ns_per_gate"] = s * 1e9 / float64(n)
	return err
}

// probeService times the serving path hop by hop on an idle fleet:
// the session layer with no wire, a client on one shard with no
// router, and the same client through the router. The router's hop is
// the difference of the last two medians.
func probeService(px *probeCtx) error {
	name := fleetParamsName(px.smoke)
	n := px.scale(8192, 64)
	opens, draws := px.scale(3, 1), px.scale(200, 10)

	reg := session.NewRegistry(session.Config{Resolve: fleetResolve, Workers: workers})
	defer reg.Close()
	var openMS, drawUS []float64
	for i := 0; i < opens; i++ {
		sp := px.rec.begin("session.open", span{}, -1, probeLane)
		t0 := time.Now()
		sess, err := reg.Open(session.OpenRequest{Params: name, Workers: workers})
		openMS = append(openMS, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return err
		}
		if i == opens-1 {
			sp = px.rec.begin("session.draw", span{}, -1, probeLane)
			for j := 0; j <= draws; j++ {
				t0 = time.Now()
				_, err := sess.DrawSender(n)
				d := time.Since(t0)
				if err == nil {
					_, _, err = sess.DrawReceiver(n)
				}
				if err != nil {
					return err
				}
				if j > 0 { // draw 0 waits for the session's first Extend
					drawUS = append(drawUS, float64(d)/float64(time.Microsecond))
				}
			}
			sp.end()
		}
		reg.Detach(sess.ID(), false)
	}
	px.layers["session.open_ms"] = median(openMS)
	px.layers["session.draw_us"] = median(drawUS)

	f, err := bootFleet()
	if err != nil {
		return err
	}
	defer f.close()
	via := func(prefix, addr string) (helloMS, drawUS float64, err error) {
		fc, err := dialFleet(addr)
		if err != nil {
			return 0, 0, err
		}
		defer func() { _ = fc.c.Close() }()
		var hellos, lats []float64
		for i := 0; i < opens; i++ {
			sp := px.rec.begin(prefix+".hello", span{}, -1, probeLane)
			t0 := time.Now()
			sess, err := fc.c.NewSession(otserv.SessionConfig{Params: name, Workers: workers})
			hellos = append(hellos, ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return 0, 0, err
			}
			if i == opens-1 {
				sp = px.rec.begin(prefix+".draw", span{}, -1, probeLane)
				for j := 0; j <= draws; j++ {
					_, _, _, pair, err := drawPair(sess, n)
					if err != nil {
						return 0, 0, err
					}
					if j > 0 {
						lats = append(lats, float64(pair[0])/float64(time.Microsecond))
					}
				}
				sp.end()
			}
			if err := sess.Close(); err != nil {
				return 0, 0, err
			}
		}
		return median(hellos), median(lats), nil
	}
	directHello, directDraw, err := via("otserv.direct", f.addrs[0])
	if err != nil {
		return err
	}
	routedHello, routedDraw, err := via("otserv.routed", f.addr)
	if err != nil {
		return err
	}
	px.layers["otserv.hello_direct_ms"] = directHello
	px.layers["otserv.draw_direct_us"] = directDraw
	px.layers["router.hop_hello_ms"] = routedHello - directHello
	px.layers["router.hop_draw_us"] = routedDraw - directDraw
	return nil
}
