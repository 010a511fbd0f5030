package cot

import (
	"errors"
	"math/rand"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/transport"
)

func pools(t *testing.T, n int) (*SenderPool, *ReceiverPool) {
	t.Helper()
	s, r, err := RandomPools(n)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestRandomPoolsCorrelation(t *testing.T) {
	s, r, err := RandomPools(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := s.r0[i]
		if r.bits[i] {
			want = want.Xor(s.Delta)
		}
		if r.blocks[i] != want {
			t.Fatalf("correlation broken at %d", i)
		}
	}
	if s.Remaining() != 64 || r.Remaining() != 64 {
		t.Fatal("remaining wrong")
	}
}

func TestChosenOT(t *testing.T) {
	sp, rp := pools(t, 32)
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(2))
	msgs := make([][2]block.Block, 32)
	choices := make([]bool, 32)
	for i := range msgs {
		msgs[i][0] = block.New(rng.Uint64(), rng.Uint64())
		msgs[i][1] = block.New(rng.Uint64(), rng.Uint64())
		choices[i] = rng.Intn(2) == 1
	}
	a, b := transport.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- SendChosen(a, sp, h, msgs) }()
	got, err := ReceiveChosen(b, rp, h, choices)
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
			t.Fatalf("OT %d wrong message", i)
		}
	}
	if sp.used != 32 || rp.used != 32 {
		t.Fatal("pools must advance by one per OT")
	}
}

func TestChosenOTSequentialBatches(t *testing.T) {
	// Two batches over the same pool must keep tweaks aligned.
	sp, rp := pools(t, 8)
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	for batch := 0; batch < 2; batch++ {
		msgs := [][2]block.Block{
			{block.New(uint64(batch), 1), block.New(uint64(batch), 2)},
			{block.New(uint64(batch), 3), block.New(uint64(batch), 4)},
		}
		choices := []bool{batch == 0, batch == 1}
		errCh := make(chan error, 1)
		go func() { errCh <- SendChosen(a, sp, h, msgs) }()
		got, err := ReceiveChosen(b, rp, h, choices)
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
				t.Fatalf("batch %d OT %d wrong", batch, i)
			}
		}
	}
}

// TestPoolExhaustion: an exchange larger than the pool fails with
// ErrExhausted on both sides, for every payload width, before any I/O
// and without moving either pool's cursor.
func TestPoolExhaustion(t *testing.T) {
	h := aesprg.NewHash()
	two := []uint64{0, 0}
	for _, tc := range []struct {
		name string
		send func(transport.Conn, *SenderPool) error
		recv func(transport.Conn, *ReceiverPool) error
	}{
		{"blocks",
			func(c transport.Conn, p *SenderPool) error { return SendChosen(c, p, h, make([][2]block.Block, 2)) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosen(c, p, h, make([]bool, 2))
				return err
			}},
		{"bits",
			func(c transport.Conn, p *SenderPool) error { return SendChosenBits(c, p, h, two, two, 2) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosenBits(c, p, h, two, 2)
				return err
			}},
		{"words",
			func(c transport.Conn, p *SenderPool) error { return SendChosenWords(c, p, h, two, two, []int{64, 1}) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosenWords(c, p, h, two, []int{64, 1})
				return err
			}},
		{"correlated bits",
			func(c transport.Conn, p *SenderPool) error { _, err := SendCorrelatedBits(c, p, h, two, 2); return err },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveCorrelatedBits(c, p, h, two, 2)
				return err
			}},
		{"correlated words",
			func(c transport.Conn, p *SenderPool) error {
				_, err := SendCorrelatedWords(c, p, h, two, []int{64, 1})
				return err
			},
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveCorrelatedWords(c, p, h, two, []int{64, 1})
				return err
			}},
	} {
		sp, rp := pools(t, 1)
		a, b := transport.Pipe()
		// No peer runs: a take that failed after any I/O would block here.
		if err := tc.send(a, sp); !errors.Is(err, ErrExhausted) {
			t.Errorf("%s: sender err = %v, want ErrExhausted", tc.name, err)
		}
		if err := tc.recv(b, rp); !errors.Is(err, ErrExhausted) {
			t.Errorf("%s: receiver err = %v, want ErrExhausted", tc.name, err)
		}
		if sp.used != 0 || rp.used != 0 {
			t.Errorf("%s: failed exchange moved the pools to %d/%d", tc.name, sp.used, rp.used)
		}
		if a.Stats().TotalBytes() != 0 {
			t.Errorf("%s: failed exchange moved %d bytes", tc.name, a.Stats().TotalBytes())
		}
	}
}

// TestChosenWordsRejectsBadWidths: a word width outside [0, 64] is an
// error on both sides, in the chosen and the correlated mode, raised
// before the pools move or any byte is sent.
func TestChosenWordsRejectsBadWidths(t *testing.T) {
	h := aesprg.NewHash()
	for _, widths := range [][]int{{-8}, {65}, {100}, {3, -1}, {64, 128}} {
		n := len(widths)
		sp, rp := pools(t, n)
		a, b := transport.Pipe()
		// Closed ends: an exchange that got past validation fails on
		// I/O instead of blocking.
		a.Close()
		b.Close()
		words := make([]uint64, n)
		if err := SendChosenWords(a, sp, h, words, words, widths); err == nil || errors.Is(err, transport.ErrClosed) {
			t.Errorf("widths %v: sender err = %v, want a width error", widths, err)
		}
		if _, err := ReceiveChosenWords(b, rp, h, words, widths); err == nil || errors.Is(err, transport.ErrClosed) {
			t.Errorf("widths %v: receiver err = %v, want a width error", widths, err)
		}
		if _, err := SendCorrelatedWords(a, sp, h, words, widths); err == nil || errors.Is(err, transport.ErrClosed) {
			t.Errorf("widths %v: correlated sender err = %v, want a width error", widths, err)
		}
		if _, err := ReceiveCorrelatedWords(b, rp, h, words, widths); err == nil || errors.Is(err, transport.ErrClosed) {
			t.Errorf("widths %v: correlated receiver err = %v, want a width error", widths, err)
		}
		if sp.used != 0 || rp.used != 0 {
			t.Errorf("widths %v: rejected exchange moved the pools to %d/%d", widths, sp.used, rp.used)
		}
	}
}

func TestChosenBitsOT(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100, 1000} {
		sp, rp := pools(t, n)
		h := aesprg.NewHash()
		rng := rand.New(rand.NewSource(int64(n)))
		limbs := (n + 63) / 64
		m0 := make([]uint64, limbs)
		m1 := make([]uint64, limbs)
		choices := make([]uint64, limbs)
		for i := range m0 {
			m0[i] = rng.Uint64()
			m1[i] = rng.Uint64()
			choices[i] = rng.Uint64()
		}
		if r := uint(n % 64); r != 0 {
			m0[limbs-1] &= 1<<r - 1
			m1[limbs-1] &= 1<<r - 1
			choices[limbs-1] &= 1<<r - 1
		}
		a, b := transport.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- SendChosenBits(a, sp, h, m0, m1, n) }()
		got, err := ReceiveChosenBits(b, rp, h, choices, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := bit(m0, i)
			if bit(choices, i) == 1 {
				want = bit(m1, i)
			}
			if bit(got, i) != want {
				t.Fatalf("n=%d: bit OT %d wrong", n, i)
			}
		}
		if sp.used != n || rp.used != n {
			t.Fatalf("n=%d: pools must advance by one per OT", n)
		}
		// Wire budget: d frame + interleaved ct0‖ct1 frame, ~3 bits per
		// OT.
		wantBytes := int64((n+7)/8 + (2*n+7)/8)
		if got := a.Stats().TotalBytes(); got != wantBytes {
			t.Fatalf("n=%d: moved %d wire bytes, want %d", n, got, wantBytes)
		}
	}
}

// TestChosenBitsInterleavedWithBlocks runs a block-payload batch and a
// bit-payload batch back to back over the SAME pool: the pool cursor
// and the hash tweak it drives are per pool, whatever the payload
// width, so a batch of either width picks up exactly where the last
// one stopped.
func TestChosenBitsInterleavedWithBlocks(t *testing.T) {
	sp, rp := pools(t, 128)
	h := aesprg.NewHash()
	a, b := transport.Pipe()

	msgs := [][2]block.Block{{block.New(1, 2), block.New(3, 4)}, {block.New(5, 6), block.New(7, 8)}}
	errCh := make(chan error, 1)
	go func() { errCh <- SendChosen(a, sp, h, msgs) }()
	gotBlocks, err := ReceiveChosen(b, rp, h, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if gotBlocks[0] != msgs[0][1] || gotBlocks[1] != msgs[1][0] {
		t.Fatal("block batch wrong")
	}

	const n = 100
	rng := rand.New(rand.NewSource(4))
	m0 := []uint64{rng.Uint64(), rng.Uint64() & (1<<36 - 1)}
	m1 := []uint64{rng.Uint64(), rng.Uint64() & (1<<36 - 1)}
	choices := []uint64{rng.Uint64(), rng.Uint64() & (1<<36 - 1)}
	go func() { errCh <- SendChosenBits(a, sp, h, m0, m1, n) }()
	got, err := ReceiveChosenBits(b, rp, h, choices, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := bit(m0, i)
		if bit(choices, i) == 1 {
			want = bit(m1, i)
		}
		if bit(got, i) != want {
			t.Fatalf("bit %d wrong after block batch", i)
		}
	}
	if sp.used != 2+n || rp.used != 2+n {
		t.Fatal("pool cursor out of lockstep")
	}
}

func TestChosenBitsExhaustionAndShape(t *testing.T) {
	sp, rp := pools(t, 1)
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	go func() {
		_, _ = ReceiveChosenBits(b, rp, h, make([]uint64, 1), 2)
		b.Close()
		a.Close()
	}()
	// take(2) on a 1-COT pool fails before any I/O.
	err := SendChosenBits(a, sp, h, make([]uint64, 1), make([]uint64, 1), 2)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if err := SendChosenBits(a, sp, h, nil, nil, 64); err == nil {
		t.Fatal("short limb slice must be rejected")
	}
	if _, err := ReceiveChosenBits(a, rp, h, nil, 64); err == nil {
		t.Fatal("short choice slice must be rejected")
	}
}

// BenchmarkChosen times one exchange of 2^16 chosen OTs per payload
// width, both parties over a pipe, and reports the cost per OT.
func BenchmarkChosen(b *testing.B) {
	const n = 1 << 16
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(1))
	m0, m1, choices := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	msgs, picks := make([][2]block.Block, n), make([]bool, n)
	ladder := make([]int, n)
	for i := range m0 {
		m0[i], m1[i], choices[i] = rng.Uint64(), rng.Uint64(), rng.Uint64()
		msgs[i] = [2]block.Block{block.New(m0[i], m1[i]), block.New(m1[i], m0[i])}
		picks[i] = choices[i]&1 == 1
		ladder[i] = 64 - i%64 // one Gilboa product's widths
	}
	for _, bc := range []struct {
		name string
		send func(transport.Conn, *SenderPool) error
		recv func(transport.Conn, *ReceiverPool) error
	}{
		{"w=1",
			func(c transport.Conn, p *SenderPool) error { return SendChosenBits(c, p, h, m0, m1, n) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosenBits(c, p, h, choices, n)
				return err
			}},
		{"w=64..1",
			func(c transport.Conn, p *SenderPool) error { return SendChosenWords(c, p, h, m0, m1, ladder) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosenWords(c, p, h, choices, ladder)
				return err
			}},
		{"w=128",
			func(c transport.Conn, p *SenderPool) error { return SendChosen(c, p, h, msgs) },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveChosen(c, p, h, picks)
				return err
			}},
	} {
		b.Run(bc.name, func(b *testing.B) { benchExchange(b, n, bc.send, bc.recv) })
	}
}

// benchExchange times one n-instance exchange per iteration, both
// parties over a pipe with pools dealt outside the timing, and reports
// the cost per OT.
func benchExchange(b *testing.B, n int, send func(transport.Conn, *SenderPool) error, recv func(transport.Conn, *ReceiverPool) error) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sp, rp, err := RandomPools(n)
		if err != nil {
			b.Fatal(err)
		}
		x, y := transport.Pipe()
		b.StartTimer()
		errCh := make(chan error, 1)
		go func() { errCh <- send(x, sp) }()
		if err := recv(y, rp); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/OT")
}

// BenchmarkCorrelated is BenchmarkChosen for the correlated mode: one
// exchange of 2^16 correlated OTs per payload width, both parties over
// a pipe, reporting the cost per OT.
func BenchmarkCorrelated(b *testing.B) {
	const n = 1 << 16
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(1))
	x, choices := make([]uint64, n), make([]uint64, n)
	ladder := make([]int, n)
	for i := range x {
		x[i], choices[i] = rng.Uint64(), rng.Uint64()
		ladder[i] = 64 - i%64 // one Gilboa product's widths
	}
	for _, bc := range []struct {
		name string
		send func(transport.Conn, *SenderPool) error
		recv func(transport.Conn, *ReceiverPool) error
	}{
		{"w=1",
			func(c transport.Conn, p *SenderPool) error { _, err := SendCorrelatedBits(c, p, h, x, n); return err },
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveCorrelatedBits(c, p, h, choices, n)
				return err
			}},
		{"w=64..1",
			func(c transport.Conn, p *SenderPool) error {
				_, err := SendCorrelatedWords(c, p, h, x, ladder)
				return err
			},
			func(c transport.Conn, p *ReceiverPool) error {
				_, err := ReceiveCorrelatedWords(c, p, h, choices, ladder)
				return err
			}},
	} {
		b.Run(bc.name, func(b *testing.B) { benchExchange(b, n, bc.send, bc.recv) })
	}
}

func TestNewReceiverPoolMismatch(t *testing.T) {
	if _, err := NewReceiverPool(make([]bool, 3), make([]block.Block, 2)); err == nil {
		t.Fatal("NewReceiverPool must reject a bits/blocks length mismatch")
	}
}

func TestChosenWordOT(t *testing.T) {
	const n = 130 // not a multiple of 64: exercises partial limbs
	sp, rp := pools(t, n)
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(7))
	m0 := make([]uint64, n)
	m1 := make([]uint64, n)
	widths := make([]int, n)
	choices := make([]uint64, transport.PackedLimbs(n))
	for i := 0; i < n; i++ {
		m0[i] = rng.Uint64()
		m1[i] = rng.Uint64()
		widths[i] = i % 65 // 0..64, including the no-payload degenerate case
		if rng.Intn(2) == 1 {
			choices[i/64] |= 1 << uint(i%64)
		}
	}
	a, b := transport.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- SendChosenWords(a, sp, h, m0, m1, widths) }()
	got, err := ReceiveChosenWords(b, rp, h, choices, widths)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := m0[i]
		if choices[i/64]>>uint(i%64)&1 == 1 {
			want = m1[i]
		}
		want &= mask(widths[i])
		if got[i] != want {
			t.Fatalf("word OT wrong at %d (width %d): got %x want %x", i, widths[i], got[i], want)
		}
	}
	if sp.Remaining() != 0 || rp.Remaining() != 0 {
		t.Fatal("word OT must consume one COT per instance, width 0 included")
	}
}

func TestChosenWordOTInterleavesWithBlocksAndBits(t *testing.T) {
	// One pool pair serves a block-payload batch, a word-payload batch,
	// and a bit-payload batch back to back: the shared tweak sequence
	// must keep every payload flavour decryptable.
	sp, rp := pools(t, 3*8)
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	errCh := make(chan error, 1)
	go func() {
		msgs := make([][2]block.Block, 8)
		for i := range msgs {
			msgs[i][0] = block.New(uint64(i), 0)
			msgs[i][1] = block.New(uint64(i)*3+1, 0)
		}
		if err := SendChosen(a, sp, h, msgs); err != nil {
			errCh <- err
			return
		}
		m0 := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
		m1 := []uint64{11, 21, 31, 41, 51, 61, 71, 81}
		widths := []int{7, 7, 7, 7, 7, 7, 7, 7}
		if err := SendChosenWords(a, sp, h, m0, m1, widths); err != nil {
			errCh <- err
			return
		}
		errCh <- SendChosenBits(a, sp, h, []uint64{0x0f}, []uint64{0xf0}, 8)
	}()
	blocks, err := ReceiveChosen(b, rp, h, make([]bool, 8))
	if err != nil {
		t.Fatal(err)
	}
	words, err := ReceiveChosenWords(b, rp, h, []uint64{0xff}, []int{7, 7, 7, 7, 7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	bits, err := ReceiveChosenBits(b, rp, h, []uint64{0x00}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if blocks[i] != block.New(uint64(i), 0) {
			t.Fatalf("block batch wrong at %d", i)
		}
		if words[i] != uint64(i)*10+11 {
			t.Fatalf("word batch wrong at %d: got %d", i, words[i])
		}
	}
	if bits[0] != 0x0f {
		t.Fatalf("bit batch wrong: got %x", bits[0])
	}
}

// TestChosenAcrossPadSpans runs block and word chosen OTs over more
// than two pad spans, with a short last span, so every span's pads
// must line up with their instances and tweaks on both sides.
func TestChosenAcrossPadSpans(t *testing.T) {
	const n = 2*padSpan + 3
	sp, rp := pools(t, 2*n)
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(11))
	msgs := make([][2]block.Block, n)
	m0, m1 := make([]uint64, n), make([]uint64, n)
	widths := make([]int, n)
	choices := make([]bool, n)
	packed := make([]uint64, transport.PackedLimbs(n))
	for i := range msgs {
		msgs[i] = [2]block.Block{block.New(rng.Uint64(), rng.Uint64()), block.New(rng.Uint64(), rng.Uint64())}
		m0[i], m1[i], widths[i] = rng.Uint64(), rng.Uint64(), i%65
		if choices[i] = rng.Intn(2) == 1; choices[i] {
			packed[i/64] |= 1 << uint(i%64)
		}
	}
	a, b := transport.Pipe()
	errCh := make(chan error, 1)
	go func() {
		if err := SendChosen(a, sp, h, msgs); err != nil {
			errCh <- err
			return
		}
		errCh <- SendChosenWords(a, sp, h, m0, m1, widths)
	}()
	blocks, err := ReceiveChosen(b, rp, h, choices)
	if err != nil {
		t.Fatal(err)
	}
	words, err := ReceiveChosenWords(b, rp, h, packed, widths)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		wantBlock, wantWord := msgs[i][0], m0[i]
		if c {
			wantBlock, wantWord = msgs[i][1], m1[i]
		}
		if blocks[i] != wantBlock {
			t.Fatalf("block OT %d: wrong message", i)
		}
		if words[i] != wantWord&mask(widths[i]) {
			t.Fatalf("word OT %d (width %d): got %x want %x", i, widths[i], words[i], wantWord&mask(widths[i]))
		}
	}
}

// frames records the length of every frame its endpoint sends.
type frames struct {
	transport.Conn
	sizes *[]int
}

func (f frames) Send(p []byte) error {
	*f.sizes = append(*f.sizes, len(p))
	return f.Conn.Send(p)
}

// runPair runs send and recv over a fresh pipe, failing the test on
// either side's error, and returns the sizes of the frames each side
// sent.
func runPair(t *testing.T, send func(transport.Conn) error, recv func(transport.Conn) error) (sent, recvd []int) {
	t.Helper()
	a, b := transport.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- send(frames{a, &sent}) }()
	if err := recv(frames{b, &recvd}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return sent, recvd
}

// checkFrames requires the correlated exchange's two frames, byte for
// byte: ⌈n/8⌉ correction bytes from the receiver, then one reply of
// replyBytes from the sender.
func checkFrames(t *testing.T, sent, recvd []int, n, replyBytes int) {
	t.Helper()
	if len(recvd) != 1 || recvd[0] != (n+7)/8 {
		t.Errorf("n=%d: receiver sent frames %v, want one of %d bytes", n, recvd, (n+7)/8)
	}
	if len(sent) != 1 || sent[0] != replyBytes {
		t.Errorf("n=%d: sender sent frames %v, want one of %d bytes", n, sent, replyBytes)
	}
}

// TestCorrelatedWords runs correlated word OTs at every width 0..64
// over more than two pad spans: the receiver must get s + c·x mod 2^w,
// with s the sender's output, for both choice values at every width,
// and the reply must carry one w-bit ciphertext per instance.
func TestCorrelatedWords(t *testing.T) {
	const n = 2*padSpan + 3
	sp, rp := pools(t, n)
	h := aesprg.NewHash()
	rng := rand.New(rand.NewSource(13))
	x := make([]uint64, n)
	widths := make([]int, n)
	choices := make([]uint64, transport.PackedLimbs(n))
	bits := 0
	for i := range x {
		x[i], widths[i] = rng.Uint64(), i%65
		choices[i/64] |= uint64(rng.Intn(2)) << uint(i%64)
		bits += widths[i]
	}
	var s, got []uint64
	sent, recvd := runPair(t, func(c transport.Conn) (err error) {
		s, err = SendCorrelatedWords(c, sp, h, x, widths)
		return err
	}, func(c transport.Conn) (err error) {
		got, err = ReceiveCorrelatedWords(c, rp, h, choices, widths)
		return err
	})
	var seen [65][2]bool
	for i, w := range widths {
		c := bit(choices, i)
		seen[w][c] = true
		if s[i]&^mask(w) != 0 {
			t.Fatalf("instance %d (width %d): sender output %x not reduced", i, w, s[i])
		}
		if want := (s[i] + c*x[i]) & mask(w); got[i] != want {
			t.Fatalf("instance %d (width %d, choice %d): got %x want %x", i, w, c, got[i], want)
		}
	}
	for w, both := range seen {
		if !both[0] || !both[1] {
			t.Fatalf("width %d did not see both choice values", w)
		}
	}
	if sp.Remaining() != 0 || rp.Remaining() != 0 {
		t.Fatal("correlated word OT must consume one COT per instance, width 0 included")
	}
	checkFrames(t, sent, recvd, n, (bits+7)/8)
}

// TestCorrelatedBits runs correlated bit OTs, up to more than two pad
// spans, with garbage past bit n in every input limb: the receiver
// must get s ⊕ c·x, both outputs must be zero past n, and the reply
// must carry one bit per instance.
func TestCorrelatedBits(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 2*padSpan + 3, 4096} {
		sp, rp := pools(t, n)
		h := aesprg.NewHash()
		rng := rand.New(rand.NewSource(int64(n)))
		limbs := transport.PackedLimbs(n)
		x, choices := make([]uint64, limbs), make([]uint64, limbs)
		for i := range x {
			x[i], choices[i] = rng.Uint64(), rng.Uint64()
		}
		var s, got []uint64
		sent, recvd := runPair(t, func(c transport.Conn) (err error) {
			s, err = SendCorrelatedBits(c, sp, h, x, n)
			return err
		}, func(c transport.Conn) (err error) {
			got, err = ReceiveCorrelatedBits(c, rp, h, choices, n)
			return err
		})
		var seen [2]bool
		for i := 0; i < n; i++ {
			c := bit(choices, i)
			seen[c] = true
			if want := bit(s, i) ^ c&bit(x, i); bit(got, i) != want {
				t.Fatalf("n=%d: bit %d (choice %d) = %d, want %d", n, i, c, bit(got, i), want)
			}
		}
		if n > 64 && (!seen[0] || !seen[1]) {
			t.Fatalf("n=%d: did not see both choice values", n)
		}
		if r := uint(n % 64); r != 0 {
			if tail := (s[limbs-1] | got[limbs-1]) >> r; tail != 0 {
				t.Fatalf("n=%d: outputs carry bits past n: %x", n, tail)
			}
		}
		if sp.used != n || rp.used != n {
			t.Fatalf("n=%d: pools must advance by one per OT", n)
		}
		checkFrames(t, sent, recvd, n, (n+7)/8)
	}
}

// TestCorrelatedRejectsBadShapes: a correlation vector of the wrong
// length and a short limb slice are errors on both sides, raised
// before the pools move or any byte is sent (bad widths:
// TestChosenWordsRejectsBadWidths).
func TestCorrelatedRejectsBadShapes(t *testing.T) {
	h := aesprg.NewHash()
	sp, rp := pools(t, 130)
	a, b := transport.Pipe()
	a.Close()
	b.Close()
	check := func(name string, err error) {
		if err == nil || errors.Is(err, transport.ErrClosed) {
			t.Errorf("%s: err = %v, want a shape error", name, err)
		}
	}
	_, err := SendCorrelatedWords(a, sp, h, make([]uint64, 2), []int{1, 2, 3})
	check("words x short", err)
	_, err = SendCorrelatedWords(a, sp, h, make([]uint64, 4), []int{1, 2, 3})
	check("words x long", err)
	_, err = ReceiveCorrelatedWords(b, rp, h, make([]uint64, 2), make([]int, 130))
	check("words choices short", err)
	_, err = SendCorrelatedBits(a, sp, h, make([]uint64, 1), 65)
	check("bits x short", err)
	_, err = ReceiveCorrelatedBits(b, rp, h, nil, 1)
	check("bits choices short", err)
	if sp.used != 0 || rp.used != 0 {
		t.Errorf("rejected exchanges moved the pools to %d/%d", sp.used, rp.used)
	}
}
