package mpcot

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

func run(t *testing.T, cfg Config, alphas []int) (block.Block, []block.Block, []block.Block) {
	t.Helper()
	p := prg.New(prg.ChaCha8, 4)
	sp, rp, err := cot.RandomPools(cfg.COTBudget())
	if err != nil {
		t.Fatal(err)
	}
	h := aesprg.NewHash()
	seeds := freshSeeds(cfg)
	a, b := transport.Pipe()
	type sres struct {
		w   []block.Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		w, err := SendSeeded(a, sp, h, p, cfg, seeds, 1)
		ch <- sres{w, err}
	}()
	v, err := ReceiveWorkers(b, rp, h, p, cfg, alphas, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatal(s.err)
	}
	return sp.Delta, s.w, v
}

// fresh returns an unseeded endpoint stream, as ferret's endpoints use.
func fresh() *aesprg.Stream { return aesprg.NewLocal(block.Block{}, block.Block{}) }

// freshSeeds draws one GGM root per bucket from a fresh stream.
func freshSeeds(cfg Config) []block.Block {
	seeds := make([]block.Block, cfg.T)
	fresh().Blocks(seeds)
	return seeds
}

// checkMulti verifies w = v ⊕ u·Δ with u the indicator of alphas.
func checkMulti(t *testing.T, delta block.Block, w, v []block.Block, alphas []int) {
	t.Helper()
	isAlpha := make(map[int]bool, len(alphas))
	for _, a := range alphas {
		isAlpha[a] = true
	}
	for i := range w {
		want := v[i]
		if isAlpha[i] {
			want = want.Xor(delta)
		}
		if w[i] != want {
			t.Fatalf("relation broken at %d", i)
		}
	}
}

func TestExactCover(t *testing.T) {
	cfg := Config{N: 64, Leaves: 16, T: 4}
	alphas := []int{3, 16, 40, 63}
	delta, w, v := run(t, cfg, alphas)
	checkMulti(t, delta, w, v, alphas)
}

// TestWorkersMatchSequential: SendSeeded/ReceiveWorkers produce the
// same w/v for any worker count as for one worker, given identical
// seeds, alphas, and pool contents.
func TestWorkersMatchSequential(t *testing.T) {
	cfg := Config{N: 100, Leaves: 16, T: 8}
	p := prg.New(prg.ChaCha8, 4)
	h := aesprg.NewHash()
	alphas := []int{3, 16, 40, 63, 64, 86, 96, 112}
	seeds := make([]block.Block, cfg.T)
	for i := range seeds {
		seeds[i] = block.New(uint64(i)+1, 77)
	}
	delta := block.New(5, 9)
	runOnce := func(workers int) ([]block.Block, []block.Block) {
		t.Helper()
		sp, rp, err := cot.PoolsFromStream(aesprg.NewStream(block.New(8, 8)), delta, cfg.COTBudget())
		if err != nil {
			t.Fatal(err)
		}
		a, b := transport.Pipe()
		type sres struct {
			w   []block.Block
			err error
		}
		ch := make(chan sres, 1)
		go func() {
			w, err := SendSeeded(a, sp, h, p, cfg, seeds, workers)
			ch <- sres{w, err}
		}()
		v, err := ReceiveWorkers(b, rp, h, p, cfg, alphas, workers)
		if err != nil {
			t.Fatal(err)
		}
		s := <-ch
		if s.err != nil {
			t.Fatal(s.err)
		}
		return s.w, v
	}
	wantW, wantV := runOnce(1)
	checkMulti(t, delta, wantW, wantV, []int{3, 16, 40, 63, 64, 86, 96})
	for _, workers := range []int{2, 4, 16} {
		gotW, gotV := runOnce(workers)
		if !slices.Equal(gotW, wantW) || !slices.Equal(gotV, wantV) {
			t.Fatalf("workers=%d: outputs differ from sequential", workers)
		}
	}
}

func TestTruncatedLastBucket(t *testing.T) {
	// n not a multiple of ℓ: the last tree is truncated, and an alpha in
	// the discarded tail is allowed (it contributes no noise inside n).
	cfg := Config{N: 50, Leaves: 16, T: 4}
	alphas := []int{0, 20, 47, 60} // 60 >= 50: outside the output range
	delta, w, v := run(t, cfg, alphas)
	if len(w) != 50 || len(v) != 50 {
		t.Fatalf("outputs must have length n")
	}
	checkMulti(t, delta, w, v, []int{0, 20, 47})
}

func TestBucketsEntirelyBeyondN(t *testing.T) {
	// Regression: the 2^20 Table 4 row has t·ℓ ≈ 1.6x n, so whole
	// buckets fall beyond the output range; Send must not slice past n.
	cfg := Config{N: 40, Leaves: 16, T: 4} // buckets 3,4 beyond 40
	alphas := cfg.AlphasFrom(fresh())
	delta, w, v := run(t, cfg, alphas)
	var inRange []int
	for _, a := range alphas {
		if a < cfg.N {
			inRange = append(inRange, a)
		}
	}
	checkMulti(t, delta, w, v, inRange)
}

func TestAlphasFromInBuckets(t *testing.T) {
	cfg := Config{N: 100, Leaves: 32, T: 4}
	for trial := 0; trial < 20; trial++ {
		alphas := cfg.AlphasFrom(fresh())
		for i, a := range alphas {
			if a < i*cfg.Leaves || a >= (i+1)*cfg.Leaves {
				t.Fatalf("alpha %d outside bucket %d", a, i)
			}
			if a >= cfg.N && (i+1)*cfg.Leaves <= cfg.N {
				t.Fatalf("alpha %d beyond n in a fully-covered bucket", a)
			}
		}
	}
}

func TestCOTBudget(t *testing.T) {
	cfg := Config{N: 64, Leaves: 16, T: 4}
	if got := cfg.COTBudget(); got != 16 {
		t.Fatalf("COTBudget = %d, want 4*log2(16)=16", got)
	}
	p := prg.New(prg.ChaCha8, 4)
	sp, rp, _ := cot.RandomPools(cfg.COTBudget())
	h := aesprg.NewHash()
	seeds := freshSeeds(cfg)
	a, b := transport.Pipe()
	go func() { _, _ = SendSeeded(a, sp, h, p, cfg, seeds, 1) }()
	if _, err := ReceiveWorkers(b, rp, h, p, cfg, []int{0, 16, 32, 48}, 1); err != nil {
		t.Fatal(err)
	}
	if sp.Remaining() != 0 || rp.Remaining() != 0 {
		t.Fatalf("left %d/%d COTs of %d, want all consumed", sp.Remaining(), rp.Remaining(), cfg.COTBudget())
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Leaves: 16, T: 4},
		{N: 16, Leaves: 1, T: 16},
		{N: 96, Leaves: 48, T: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v should fail validation", cfg)
		}
	}
	// Partial cover is allowed (Table 4 rows 2^23, 2^24).
	part := Config{N: 100, Leaves: 16, T: 4}
	if err := part.Validate(); err != nil {
		t.Fatalf("partial cover should validate: %v", err)
	}
	p := prg.New(prg.ChaCha8, 4)
	sp, rp, _ := cot.RandomPools(64)
	h := aesprg.NewHash()
	a, _ := transport.Pipe()
	cfg := Config{N: 64, Leaves: 16, T: 4}
	if _, err := ReceiveWorkers(a, rp, h, p, cfg, []int{0, 0, 32, 48}, 1); err == nil {
		t.Fatal("alpha outside its bucket must be rejected")
	}
	if _, err := ReceiveWorkers(a, rp, h, p, cfg, []int{0}, 1); err == nil {
		t.Fatal("wrong alpha count must be rejected")
	}
	empty := Config{N: 0, Leaves: 2, T: 1}
	if _, err := SendSeeded(a, sp, h, p, empty, freshSeeds(empty), 1); err == nil {
		t.Fatal("bad config must be rejected in SendSeeded")
	}
}

// tamper rewrites every frame its endpoint sends.
type tamper struct {
	transport.Conn
	f func([]byte) []byte
}

func (c tamper) Send(p []byte) error { return c.Conn.Send(c.f(p)) }

// TestExchangeFrameErrors: a reply or correction frame of the wrong
// length fails the side that reads it with a length error, before any
// tree reads the frame, and closing the conn then releases the peer —
// no panic and no hang.
func TestExchangeFrameErrors(t *testing.T) {
	short := func(p []byte) []byte { return p[:len(p)-1] }
	long := func(p []byte) []byte { return append(slices.Clone(p), 0) }
	for _, c := range []struct {
		name   string
		sender bool // tamper with the sender's frame (the reply)
		f      func([]byte) []byte
	}{
		{"reply one byte short", true, short},
		{"reply one byte long", true, long},
		{"correction frame one byte short", false, short},
		{"correction frame one byte long", false, long},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{N: 200, Leaves: 32, T: 8}
			p := prg.New(prg.ChaCha8, 4)
			s := aesprg.NewStream(block.New(0xbad, 0xf4a3e))
			seeds := make([]block.Block, cfg.T)
			s.Blocks(seeds)
			alphas := cfg.AlphasFrom(s)
			sp, rp, err := cot.PoolsFromStream(s, s.Block(), cfg.COTBudget())
			if err != nil {
				t.Fatal(err)
			}
			h := aesprg.NewHash()
			a, b := transport.Pipe()
			var connS, connR transport.Conn = a, b
			if c.sender {
				connS = tamper{a, c.f}
			} else {
				connR = tamper{b, c.f}
			}
			sErr, rErr := make(chan error, 1), make(chan error, 1)
			go func() { _, err := SendSeeded(connS, sp, h, p, cfg, seeds, 2); sErr <- err }()
			go func() { _, err := ReceiveWorkers(connR, rp, h, p, cfg, alphas, 2); rErr <- err }()
			reader, peer := rErr, sErr
			if !c.sender {
				reader, peer = sErr, rErr
			}
			deadline := time.After(10 * time.Second)
			select {
			case err := <-reader:
				if err == nil || errors.Is(err, transport.ErrClosed) {
					t.Fatalf("reader: err = %v, want a frame-length error", err)
				}
			case <-deadline:
				t.Fatal("reader hung on a bad frame")
			}
			a.Close()
			b.Close()
			select {
			case <-peer:
			case <-deadline:
				t.Fatal("closing the conn did not release the peer")
			}
		})
	}
}
