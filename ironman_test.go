package ironman

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ironman/internal/cot"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/gmw"
	"ironman/internal/pool"
)

func dealtPair(t testing.TB, params Params) (Conn, Conn, Block, *Sender, *Receiver) {
	t.Helper()
	a, b := Pipe()
	delta := RandomDelta()
	s, r, err := NewDealtPair(a, b, delta, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, delta, s, r
}

func smallParams() Params { return ferret.TestParams(600, 32, 128, 8) }

func TestCOTsAcrossIterations(t *testing.T) {
	_, _, delta, s, r := dealtPair(t, smallParams())
	// Draw more than one iteration's Usable() to force buffering.
	n := smallParams().Usable() + 100
	type sres struct {
		z   []Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		z, err := s.COTs(n)
		ch <- sres{z, err}
	}()
	bits, blocks, err := r.COTs(n)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if err := VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
		t.Fatal(err)
	}
	if s.ext.Delta() != delta {
		t.Fatal("sender holds the wrong Delta")
	}
}

func TestChosenOTEndToEnd(t *testing.T) {
	connS, connR, _, s, r := dealtPair(t, smallParams())
	msgs := make([][2]Block, 16)
	choices := make([]bool, 16)
	for i := range msgs {
		msgs[i][0] = Block{Lo: uint64(i), Hi: 0}
		msgs[i][1] = Block{Lo: uint64(i), Hi: 1}
		choices[i] = i%3 == 0
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.SendChosen(connS, msgs) }()
	got, err := r.ReceiveChosen(connR, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := msgs[i][0]
		if choices[i] {
			want = msgs[i][1]
		}
		if got[i] != want {
			t.Fatalf("chosen OT %d wrong", i)
		}
	}
}

func TestPrefetchOption(t *testing.T) {
	// With Prefetch > 0 both endpoints generate on background workers;
	// the draw API and the correlations are unchanged.
	a, b := Pipe()
	delta := RandomDelta()
	opts := Options{Prefetch: 2}
	s, r, err := NewDealtPair(a, b, delta, smallParams(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	defer a.Close()
	defer b.Close()
	// Draw well past the prefetch window (4 batches vs Prefetch 2),
	// sequentially: a dealt pair shares one lockstep generator, so a
	// one-sided draw can never wedge waiting for the peer's worker.
	n := 4 * smallParams().Usable()
	z, err := s.COTs(n)
	if err != nil {
		t.Fatal(err)
	}
	bits, blocks, err := r.COTs(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCOTs(delta, z, bits, blocks); err != nil {
		t.Fatal(err)
	}
	st := s.PoolStats()
	if st.Dispensed != uint64(n) || st.Generated < st.Dispensed || st.Refills < 4 {
		t.Fatalf("pool stats: %+v", st)
	}
}

// TestDealtPairOneSidedDraw: at Prefetch 0 a dealt pair still shares
// one lockstep generator, so one endpoint can draw several batches
// alone (it once blocked forever waiting for the other endpoint's
// Extend), the other endpoint's later draw pairs with it, and a
// one-sided draw past the (Prefetch+8)-batch retention cap fails typed.
func TestDealtPairOneSidedDraw(t *testing.T) {
	a, b := Pipe()
	delta := RandomDelta()
	s, r, err := NewDealtPair(a, b, delta, smallParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Conns first: a draw wedged in Extend holds the pool until its
	// conn fails.
	defer func() {
		a.Close()
		b.Close()
		s.Close()
	}()
	n := 2 * smallParams().Usable()
	type sres struct {
		z   []Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		z, err := s.COTs(n)
		ch <- sres{z, err}
	}()
	var sr sres
	select {
	case sr = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("one-sided sender draw on a Prefetch-0 dealt pair did not return")
	}
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	bits, blocks, err := r.COTs(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := s.COTs(9 * smallParams().Usable()); !errors.Is(err, pool.ErrRetained) {
		t.Fatalf("draw past the retention cap: err = %v, want pool.ErrRetained", err)
	}
}

// gatedConn holds every Send until gate is closed (when gate is set).
type gatedConn struct {
	Conn
	gate chan struct{}
}

func (c *gatedConn) Send(p []byte) error {
	if c.gate != nil {
		<-c.gate
	}
	return c.Conn.Send(p)
}

// TestDealtPairConcurrentDraw: both endpoints of a Prefetch-0 dealt
// pair draw 10 batches at once — past the 8-batch retention cap — and
// the draws pair up: whichever endpoint runs the shared source inline
// releases the pool's lock while it does, so the other registers its
// demand and the cap discounts it. The first iteration is held at its
// first Send until both draws have had time to start, so the test
// fails (rather than flakes) if a source run keeps the lock.
func TestDealtPairConcurrentDraw(t *testing.T) {
	pa, b := Pipe()
	a := &gatedConn{Conn: pa}
	delta := RandomDelta()
	s, r, err := NewDealtPair(a, b, delta, smallParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		a.Close()
		b.Close()
		s.Close()
	}()
	a.gate = make(chan struct{})
	n := 10 * smallParams().Usable()
	var z, blocks []Block
	var bits []bool
	errs := make(chan error, 2)
	go func() {
		var err error
		z, err = s.COTs(n)
		errs <- err
	}()
	go func() {
		var err error
		bits, blocks, err = r.COTs(n)
		errs <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(a.gate)
	deadline := time.After(30 * time.Second)
	for range 2 {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent draws on a Prefetch-0 dealt pair did not return")
		}
	}
	if err := VerifyCOTs(delta, z, bits, blocks); err != nil {
		t.Fatal(err)
	}
}

// TestChosenOTRejectsBusyConn: chosen-OT calls on the conn a prefetch
// worker is generating on must fail with ErrConnBusy instead of
// silently interleaving frames with the background iteration. A second
// conn stays usable, and synchronous endpoints (Prefetch == 0) accept
// their protocol conn as before.
func TestChosenOTRejectsBusyConn(t *testing.T) {
	a, b := Pipe()
	delta := RandomDelta()
	opts := Options{Prefetch: 2}
	s, r, err := NewDealtPair(a, b, delta, smallParams(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	defer a.Close()
	defer b.Close()
	if err := s.SendChosen(a, make([][2]Block, 1)); err != ErrConnBusy {
		t.Fatalf("SendChosen on busy conn: err = %v, want ErrConnBusy", err)
	}
	if _, err := r.ReceiveChosen(b, make([]bool, 1)); err != ErrConnBusy {
		t.Fatalf("ReceiveChosen on busy conn: err = %v, want ErrConnBusy", err)
	}
	// A dealt pair's lockstep generator owns BOTH pipe ends, so the
	// peer's conn is just as off-limits.
	if err := s.SendChosen(b, make([][2]Block, 1)); err != ErrConnBusy {
		t.Fatalf("SendChosen on peer conn: err = %v, want ErrConnBusy", err)
	}
	if _, err := r.ReceiveChosen(a, make([]bool, 1)); err != ErrConnBusy {
		t.Fatalf("ReceiveChosen on peer conn: err = %v, want ErrConnBusy", err)
	}
	// A dedicated conn pair carries the chosen-OT exchange fine while
	// prefetching continues on the protocol conns.
	appS, appR := Pipe()
	msgs := [][2]Block{{{Lo: 1}, {Lo: 2}}}
	errCh := make(chan error, 1)
	go func() { errCh <- s.SendChosen(appS, msgs) }()
	got, err := r.ReceiveChosen(appR, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got[0] != msgs[0][1] {
		t.Fatal("chosen OT over dedicated conn wrong")
	}
}

// TestWorkersOptionEndToEnd: every worker count yields correlations
// that verify, and a seeded pair draws exactly the same correlations
// at every worker count (the transcript does not depend on Workers).
func TestWorkersOptionEndToEnd(t *testing.T) {
	delta := Block{Lo: 0x3017, Hi: 0x4e55}
	n := smallParams().Usable() + 50 // cross an iteration boundary
	var ref []Block
	for _, workers := range []int{1, 2, 4} {
		a, b := Pipe()
		opts := Options{Workers: workers, Seed: Block{Lo: 0x776f726b657273}} // "workers"
		s, r, err := NewDealtPair(a, b, delta, smallParams(), opts)
		if err != nil {
			t.Fatal(err)
		}
		type sres struct {
			z   []Block
			err error
		}
		ch := make(chan sres, 1)
		go func() {
			z, err := s.COTs(n)
			ch <- sres{z, err}
		}()
		bits, blocks, err := r.COTs(n)
		if err != nil {
			t.Fatal(err)
		}
		sr := <-ch
		if sr.err != nil {
			t.Fatal(sr.err)
		}
		if err := VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if ref == nil {
			ref = sr.z
		} else if !slices.Equal(sr.z, ref) {
			t.Fatalf("workers %d: seeded draws differ from workers 1", workers)
		}
	}
}

func TestParamSets(t *testing.T) {
	if len(ferret.Table4) != 5 {
		t.Fatalf("want 5 sets, got %d", len(ferret.Table4))
	}
	for _, want := range ferret.Table4 {
		if got, err := ParamsByName(want.Name); err != nil || got != want {
			t.Fatalf("ParamsByName(%q) = %+v, %v", want.Name, got, err)
		}
	}
	if _, err := ParamsByName("2^99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestVerifyCOTsRejects(t *testing.T) {
	delta := Block{Lo: 1}
	z := []Block{{Lo: 5}}
	if err := VerifyCOTs(delta, z, []bool{false}, []Block{{Lo: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCOTs(delta, z, []bool{false}, []Block{{Lo: 6}}); err == nil {
		t.Fatal("corruption must fail")
	}
	if err := VerifyCOTs(delta, z, []bool{}, nil); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

// TestZeroOptionsRunDesignPoint: the zero Options is the Ironman
// design point. Seeded dealt pairs under Options{} and under either
// spelling of the deprecated FourAryChaCha yield identical COTs, and
// the sender conn carries exactly the ferret backend's modelled
// ExtendBytes per Extend, the ChaCha8×4 tree's wire.
func TestZeroOptionsRunDesignPoint(t *testing.T) {
	const iters = 2
	params := smallParams()
	b, err := extension.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	want := iters * b.Cost(params, extension.Options{}).ExtendBytes
	delta := Block{Lo: 0x7a65726f, Hi: 0x6f707473}
	n := iters * params.Usable()
	var ref []Block
	for _, opts := range []Options{{}, {FourAryChaCha: true}, {FourAryChaCha: false}} {
		opts.Seed = Block{Lo: 0x5eed}
		a, c := Pipe()
		s, r, err := NewDealtPair(a, c, delta, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		z, err := s.COTs(n)
		if err != nil {
			t.Fatal(err)
		}
		bits, blocks, err := r.COTs(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCOTs(delta, z, bits, blocks); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if ref == nil {
			ref = z
		} else if !slices.Equal(z, ref) {
			t.Fatalf("%+v: COTs differ from Options{}", opts)
		}
		if got := s.PoolStats().Refills; got != iters {
			t.Fatalf("%+v: %d Extends, want %d", opts, got, iters)
		}
		if got := a.Stats().TotalBytes(); got != want {
			t.Fatalf("%+v: sender conn carried %d bytes over %d Extends, want %d", opts, got, iters, want)
		}
		s.Close()
		a.Close()
		c.Close()
	}
}

// TestGMWOverPublicAPI runs a batched comparison through the exported
// GMW surface: two dealt endpoint pairs with swapped roles supply the
// two OT directions, and the whole 16-bit x 32-element compare takes a
// logarithmic number of OT flights.
func TestGMWOverPublicAPI(t *testing.T) {
	const elems, width = 32, 16
	budget := (3*width - 2) * elems
	_, _, _, s1, r1 := dealtPair(t, smallParams())
	_, _, _, s2, r2 := dealtPair(t, smallParams())
	drawPair := func(s *Sender, r *Receiver) (*cot.SenderPool, *cot.ReceiverPool) {
		t.Helper()
		ch := make(chan *cot.SenderPool, 1)
		go func() {
			sp, err := s.GMWPool(budget)
			if err != nil {
				t.Error(err)
			}
			ch <- sp
		}()
		rp, err := r.GMWPool(budget)
		if err != nil {
			t.Fatal(err)
		}
		return <-ch, rp
	}
	out1, in1 := drawPair(s1, r1)
	out2, in2 := drawPair(s2, r2)

	xs := make([]uint64, elems)
	ys := make([]uint64, elems)
	for i := range xs {
		xs[i] = uint64(i * 977 % (1 << width))
		ys[i] = uint64((elems - i) * 1013 % (1 << width))
	}
	connA, connB := Pipe()
	var openA []bool
	done := make(chan error, 1)
	go func() {
		pa, err := gmw.NewParty(connA, out1, in2, true)
		if err != nil {
			done <- err
			return
		}
		gt, err := pa.GreaterThanVec(pa.NewPrivateVec(xs, width, true), pa.NewPrivateVec(make([]uint64, elems), width, false))
		if err != nil {
			done <- err
			return
		}
		openA, err = pa.RevealPacked(gt)
		done <- err
	}()
	pb, err := gmw.NewParty(connB, out2, in1, false)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := pb.GreaterThanVec(pb.NewPrivateVec(make([]uint64, elems), width, false), pb.NewPrivateVec(ys, width, true))
	if err != nil {
		t.Fatal(err)
	}
	openB, err := pb.RevealPacked(gt)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want := xs[i] > ys[i]
		if openA[i] != want || openB[i] != want {
			t.Fatalf("elem %d: gt(%d,%d) = %v/%v", i, xs[i], ys[i], openA[i], openB[i])
		}
	}
	// Round budget: handshake + 1+ceil(log2 w) AND exchanges + reveal,
	// two flights each at most.
	if flights := connA.Stats().Flights; flights > 2*(gmw.ComparatorExchanges(width)+2) {
		t.Fatalf("comparison took %d flights, want O(log w)", flights)
	}
}
