package pool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/transport"
)

// seqSource returns a SenderRefill yielding batches of `batch` blocks
// whose Lo fields form the global sequence 0,1,2,..., after sleeping
// for d (simulating interactive protocol latency).
func seqSource(batch int, d time.Duration) SenderRefill {
	var next uint64
	return func() ([]block.Block, error) {
		if d > 0 {
			time.Sleep(d)
		}
		out := make([]block.Block, batch)
		for i := range out {
			out[i] = block.Block{Lo: next}
			next++
		}
		return out, nil
	}
}

func wantSeq(t *testing.T, got []block.Block, from uint64) {
	t.Helper()
	for i, b := range got {
		if b.Lo != from+uint64(i) {
			t.Fatalf("block %d: got %d, want %d", i, b.Lo, from+uint64(i))
		}
	}
}

func TestSenderSyncDraws(t *testing.T) {
	p := NewSender(seqSource(64, 0), Config{})
	defer p.Close()
	a, err := p.COTs(100) // spans two batches
	if err != nil {
		t.Fatal(err)
	}
	wantSeq(t, a, 0)
	b, err := p.COTs(28) // served from the leftover
	if err != nil {
		t.Fatal(err)
	}
	wantSeq(t, b, 100)
	st := p.Stats()
	if st.Refills != 2 || st.Generated != 128 || st.Dispensed != 128 || st.Buffered != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BlockedDraws != 0 {
		t.Fatalf("sync draws must not count as blocked: %+v", st)
	}
}

func TestSenderPrefetchDraws(t *testing.T) {
	p := NewSender(seqSource(64, 0), Config{Depth: 4})
	defer p.Close()
	var off uint64
	for i := 0; i < 20; i++ {
		z, err := p.COTs(50)
		if err != nil {
			t.Fatal(err)
		}
		wantSeq(t, z, off)
		off += 50
	}
	st := p.Stats()
	if st.Dispensed != 1000 {
		t.Fatalf("dispensed = %d", st.Dispensed)
	}
	if st.Generated < 1000 || st.Generated > 1000+4*64+64 {
		t.Fatalf("generated = %d, want ~demand+prefetch", st.Generated)
	}
}

func TestReceiverPool(t *testing.T) {
	var next uint64
	src := func() ([]bool, []block.Block, error) {
		bits := make([]bool, 32)
		blocks := make([]block.Block, 32)
		for i := range bits {
			bits[i] = next%3 == 0
			blocks[i] = block.Block{Lo: next}
			next++
		}
		return bits, blocks, nil
	}
	for _, depth := range []int{0, 2} {
		p := NewReceiver(src, Config{Depth: depth})
		bits, blocks, err := p.COTs(48)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if bits[i] != (blocks[i].Lo%3 == 0) {
				t.Fatalf("depth %d: bits/blocks misaligned at %d", depth, i)
			}
		}
		p.Close()
		next = 0
	}
}

func TestDrawLargerThanPrefetch(t *testing.T) {
	p := NewSender(seqSource(16, 0), Config{Depth: 2})
	defer p.Close()
	// 10 batches' worth in one draw: demand must override the water marks.
	z, err := p.COTs(160)
	if err != nil {
		t.Fatal(err)
	}
	wantSeq(t, z, 0)
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	src := func() ([]block.Block, error) {
		calls++
		if calls > 2 {
			return nil, boom
		}
		return make([]block.Block, 8), nil
	}
	p := NewSender(src, Config{Depth: 1})
	defer p.Close()
	if _, err := p.COTs(64); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestCloseUnblocksDraw(t *testing.T) {
	// A source that delivers one batch and then parks until closed.
	release := make(chan struct{})
	calls := 0
	src := func() ([]block.Block, error) {
		calls++
		if calls > 1 {
			<-release
			return nil, errors.New("released")
		}
		return make([]block.Block, 8), nil
	}
	p := NewSender(src, Config{Depth: 1})
	got := make(chan error, 1)
	go func() {
		_, err := p.COTs(1000) // more than the source will deliver
		got <- err
	}()
	// Wait for the draw to be registered as blocked.
	for {
		if st := p.Stats(); st.BlockedDraws == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	close(release) // let the parked worker finish so Close can reap it
	p.Close()
}

// seqBatch is the shared seeded sequence behind the view tests: batch
// correlations numbered from *next, choice bit set on every third.
func seqBatch(next *uint64, batch int) (z []block.Block, bits []bool, y []block.Block) {
	z = make([]block.Block, batch)
	bits = make([]bool, batch)
	y = make([]block.Block, batch)
	for i := range z {
		z[i] = block.Block{Lo: *next}
		y[i] = block.Block{Lo: *next, Hi: 1}
		bits[i] = *next%3 == 0
		*next++
	}
	return z, bits, y
}

// drawer is one half of a stream as the view tests see it.
type drawer struct {
	name  string
	draw  func(n int) ([]block.Block, []bool, error)
	stats func() Stats
	*stream
}

func senderDrawer(name string, p *Sender) drawer {
	return drawer{name, func(n int) ([]block.Block, []bool, error) {
		z, err := p.COTs(n)
		return z, nil, err
	}, p.Stats, p.stream}
}

func receiverDrawer(name string, p *Receiver) drawer {
	return drawer{name, func(n int) ([]block.Block, []bool, error) {
		bits, y, err := p.COTs(n)
		return y, bits, err
	}, p.Stats, p.stream}
}

// seqDrawers opens the same seeded sequence four ways: a Sender, a
// Receiver, and the two halves of a Dealt (whose stream they share).
func seqDrawers(batch int, cfg Config) []drawer {
	var ns, nr, nd uint64
	s := NewSender(func() ([]block.Block, error) {
		z, _, _ := seqBatch(&ns, batch)
		return z, nil
	}, cfg)
	r := NewReceiver(func() ([]bool, []block.Block, error) {
		_, bits, y := seqBatch(&nr, batch)
		return bits, y, nil
	}, cfg)
	d := NewDealt(func() ([]block.Block, []bool, []block.Block, error) {
		z, bits, y := seqBatch(&nd, batch)
		return z, bits, y, nil
	}, cfg)
	return []drawer{
		senderDrawer("Sender", s), receiverDrawer("Receiver", r),
		senderDrawer("Dealt.SenderHalf", d.SenderHalf()), receiverDrawer("Dealt.ReceiverHalf", d.ReceiverHalf()),
	}
}

// TestDrawAfterClose: a closed pool dispenses nothing — not even
// correlations it provably still has buffered — on every view, inline
// and prefetching.
func TestDrawAfterClose(t *testing.T) {
	const batch, n = 64, 8
	for _, depth := range []int{0, 2} {
		for i := 0; i < 4; i++ {
			// A fresh set per case: the Dealt's halves share one Close.
			ds := seqDrawers(batch, Config{Depth: depth})
			d := ds[i]
			// The first draw returns only once a batch is in, so the
			// buffer holds at least batch-n afterwards.
			if _, _, err := d.draw(n); err != nil {
				t.Fatalf("%s depth %d: %v", d.name, depth, err)
			}
			before := d.stats()
			if before.Buffered < n {
				t.Fatalf("%s depth %d: only %d buffered, the case needs %d", d.name, depth, before.Buffered, n)
			}
			d.Close()
			if _, _, err := d.draw(n); !errors.Is(err, ErrClosed) {
				t.Errorf("%s depth %d: draw after Close: err = %v, want ErrClosed", d.name, depth, err)
			}
			if after := d.stats(); after.Dispensed != before.Dispensed {
				t.Errorf("%s depth %d: dispensed %d -> %d across Close", d.name, depth, before.Dispensed, after.Dispensed)
			}
			for _, d := range ds {
				d.Close()
			}
		}
	}
	// Closed before anything was generated.
	p := NewSender(seqSource(8, 0), Config{})
	p.Close()
	if _, err := p.COTs(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestViewsDrawOneStream: the same seeded sequence drawn through a
// Sender, a Receiver and the matching halves of a Dealt yields the
// identical dispensed stream and identical counters per half, inline
// and prefetching.
func TestViewsDrawOneStream(t *testing.T) {
	const batch = 64
	// With a worker, draw only while it is parked and never more than
	// the low-water mark (one batch at Depth 2): then no draw blocks
	// and the refill schedule is a function of the draw sequence alone.
	// needRefill is the worker's own test, so evaluating it here moves
	// the hysteresis state exactly as the worker's next look would.
	quiesce := func(d drawer) {
		for d.cfg.Depth > 0 {
			d.mu.Lock()
			parked := !d.needRefill()
			d.mu.Unlock()
			if parked {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for _, depth := range []int{0, 2} {
		ds := seqDrawers(batch, Config{Depth: depth})
		var next uint64
		for _, n := range []int{10, 64, 1, 50, 33, 64, 0, 7, 64, 64, 21} {
			wantZ, wantBits, wantY := seqBatch(&next, n)
			for i, d := range ds {
				quiesce(d)
				blocks, bits, err := d.draw(n)
				if err != nil {
					t.Fatalf("%s depth %d: %v", d.name, depth, err)
				}
				want, wantB := wantZ, []bool(nil)
				if i%2 == 1 { // receiver halves
					want, wantB = wantY, wantBits
				}
				if len(blocks) != n || len(bits) != len(wantB) {
					t.Fatalf("%s depth %d: drew %d blocks, %d bits for n = %d", d.name, depth, len(blocks), len(bits), n)
				}
				for j := range bits {
					if bits[j] != wantB[j] {
						t.Fatalf("%s depth %d: bit %d of a %d-draw differs", d.name, depth, j, n)
					}
				}
				for j := range blocks {
					if blocks[j] != want[j] {
						t.Fatalf("%s depth %d: block %d of a %d-draw differs", d.name, depth, j, n)
					}
				}
			}
		}
		for i, d := range ds {
			quiesce(d)
			got, ref := d.stats(), ds[i%2].stats()
			if got.Generated != ref.Generated || got.Dispensed != ref.Dispensed ||
				got.Refills != ref.Refills || got.Draws != ref.Draws {
				t.Errorf("depth %d: %s stats %+v != %s stats %+v", depth, d.name, got, ds[i%2].name, ref)
			}
		}
		for _, d := range ds {
			d.Close()
		}
	}
}

func TestCompactionBoundsBuffer(t *testing.T) {
	const batch = 2048
	p := NewSender(seqSource(batch, 0), Config{})
	defer p.Close()
	var off uint64
	for i := 0; i < 64; i++ {
		z, err := p.COTs(batch / 2)
		if err != nil {
			t.Fatal(err)
		}
		wantSeq(t, z, off)
		off += batch / 2
	}
	p.mu.Lock()
	bufLen, head := len(p.s.blocks), p.s.head
	p.mu.Unlock()
	// Without compaction the buffer would have accumulated 64*1024
	// consumed entries; with it, the live window stays within a few
	// batches.
	if bufLen > 3*batch {
		t.Fatalf("buffer grew to %d (head %d): consumed prefix retained", bufLen, head)
	}
}

func TestConcurrentDraws(t *testing.T) {
	p := NewSender(seqSource(256, 0), Config{Depth: 3})
	defer p.Close()
	var wg sync.WaitGroup
	seen := make([]uint64, 0, 4*1000)
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				z, err := p.COTs(100)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, b := range z {
					seen = append(seen, b.Lo)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 4000 {
		t.Fatalf("drew %d", len(seen))
	}
	// Every correlation is dispensed exactly once.
	uniq := make(map[uint64]bool, len(seen))
	for _, v := range seen {
		if uniq[v] {
			t.Fatalf("correlation %d dispensed twice", v)
		}
		uniq[v] = true
	}
}

// ferretDealtSource builds a lockstep Dealt source over an in-process
// ferret pair — the same shape otserv sessions use.
func ferretDealtSource(tb testing.TB, params ferret.Params) (DealtRefill, block.Block) {
	tb.Helper()
	a, b := transport.Pipe()
	delta := block.New(0x1234, 0x5678)
	fs, fr, err := ferret.DealPools(a, b, delta, params, ferret.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return func() ([]block.Block, []bool, []block.Block, error) {
		var z []block.Block
		var serr error
		done := make(chan struct{})
		go func() {
			z, serr = fs.Extend()
			close(done)
		}()
		out, rerr := fr.Extend()
		<-done
		if serr != nil {
			return nil, nil, nil, serr
		}
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		return z, out.Bits, out.Blocks, nil
	}, delta
}

func smallParams() ferret.Params { return ferret.TestParams(600, 32, 128, 8) }

func TestDealtLockstepVerifies(t *testing.T) {
	src, delta := ferretDealtSource(t, smallParams())
	p := NewDealt(src, Config{Depth: 2})
	defer p.Close()
	// Asymmetric draw rates: the sender half drains twice as fast; the
	// receiver half must stay aligned with it instance-for-instance.
	var zs []block.Block
	var bits []bool
	var ys []block.Block
	for i := 0; i < 4; i++ {
		z, err := p.SenderCOTs(200)
		if err != nil {
			t.Fatal(err)
		}
		zs = append(zs, z...)
	}
	for i := 0; i < 2; i++ {
		bs, y, err := p.ReceiverCOTs(400)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, bs...)
		ys = append(ys, y...)
	}
	if err := ferret.Check(delta, zs, &ferret.ReceiverOutput{Bits: bits, Blocks: ys}); err != nil {
		t.Fatal(err)
	}
	ss, rs := p.Stats()
	if ss.Dispensed != 800 || rs.Dispensed != 800 {
		t.Fatalf("dispensed %d/%d", ss.Dispensed, rs.Dispensed)
	}
	if ss.Refills != rs.Refills {
		t.Fatalf("halves desynchronized: %d vs %d refills", ss.Refills, rs.Refills)
	}
}

func TestDealtSyncMode(t *testing.T) {
	src, delta := ferretDealtSource(t, smallParams())
	p := NewDealt(src, Config{})
	defer p.Close()
	z, err := p.SenderCOTs(100)
	if err != nil {
		t.Fatal(err)
	}
	bits, y, err := p.ReceiverCOTs(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ferret.Check(delta, z, &ferret.ReceiverOutput{Bits: bits, Blocks: y}); err != nil {
		t.Fatal(err)
	}
}

// dealtSeqSource yields aligned synthetic batches for cap tests.
func dealtSeqSource(batch int) DealtRefill {
	var next uint64
	return func() ([]block.Block, []bool, []block.Block, error) {
		z := make([]block.Block, batch)
		bits := make([]bool, batch)
		y := make([]block.Block, batch)
		for i := range z {
			z[i] = block.Block{Lo: next}
			y[i] = z[i]
			next++
		}
		return z, bits, y, nil
	}
}

func TestDealtRetentionCap(t *testing.T) {
	const batch = 100
	for _, depth := range []int{0, 1} {
		p := NewDealt(dealtSeqSource(batch), Config{Depth: depth, MaxBuffered: 3 * batch})
		// Drain only the sender half: the receiver half retains every
		// refill until the cap stops generation and the starved draw
		// fails instead of growing memory without bound.
		var err error
		draws := 0
		for ; draws < 50; draws++ {
			if _, err = p.SenderCOTs(batch); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrRetained) {
			t.Fatalf("depth %d: err = %v after %d draws, want ErrRetained", depth, err, draws)
		}
		if draws < 2 {
			t.Fatalf("depth %d: cap tripped after only %d draws", depth, draws)
		}
		p.mu.Lock()
		retained := p.r.ready()
		p.mu.Unlock()
		if retained > 3*batch {
			t.Fatalf("depth %d: receiver half retained %d > cap", depth, retained)
		}
		// Draining the fat half unblocks generation.
		if _, _, err := p.ReceiverCOTs(retained); err != nil {
			t.Fatalf("depth %d: draining receiver half: %v", depth, err)
		}
		if _, err := p.SenderCOTs(batch); err != nil {
			t.Fatalf("depth %d: draw after drain: %v", depth, err)
		}
		p.Close()
	}
}

// benchParams is a mid-size set: one Extend yields 17760 correlations.
func benchParams() ferret.Params { return ferret.TestParams(20000, 64, 2048, 32) }

// TestPrewarmedDrawLatency is the acceptance check for the pool: a
// full-batch draw from a pre-warmed pool must be at least 5x faster
// than the synchronous seed path, which runs the Extend iteration
// inline. The observed gap is orders of magnitude (memcpy vs an
// interactive protocol iteration), so the 5x bound has wide margin.
func TestPrewarmedDrawLatency(t *testing.T) {
	params := benchParams()
	n := params.Usable()

	// Synchronous seed path: every draw of a full batch runs Extend.
	syncSrc, _ := ferretDealtSource(t, params)
	syncPool := NewDealt(syncSrc, Config{})
	defer syncPool.Close()
	const rounds = 3
	syncTime := time.Duration(0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := syncPool.SenderCOTs(n); err != nil {
			t.Fatal(err)
		}
		syncTime += time.Since(start)
		// Keep the receiver half from accumulating unboundedly.
		if _, _, err := syncPool.ReceiverCOTs(n); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-warmed pool: prefetch rounds+1 batches, wait for the buffer,
	// then time the same draws.
	warmSrc, _ := ferretDealtSource(t, params)
	warmPool := NewDealt(warmSrc, Config{Depth: rounds + 1})
	defer warmPool.Close()
	warmTime := time.Duration(0)
	for i := 0; i < rounds; i++ {
		// Wait until the batch is ready AND the worker has parked, so
		// the timed draw measures pure dispensing latency without lock
		// contention from a concurrent refill append.
		for {
			warmPool.mu.Lock()
			ready := warmPool.s.ready() >= n && !warmPool.filling
			warmPool.mu.Unlock()
			if ready {
				break
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		if _, err := warmPool.SenderCOTs(n); err != nil {
			t.Fatal(err)
		}
		warmTime += time.Since(start)
		if _, _, err := warmPool.ReceiverCOTs(n); err != nil {
			t.Fatal(err)
		}
	}

	t.Logf("sync %v, warm %v (%.1fx)", syncTime/rounds, warmTime/rounds,
		float64(syncTime)/float64(warmTime))
	if warmTime*5 > syncTime {
		t.Fatalf("pre-warmed draw %v not 5x faster than synchronous %v",
			warmTime/rounds, syncTime/rounds)
	}
	ss, _ := warmPool.Stats()
	if ss.BlockedDraws != 0 {
		t.Fatalf("warm draws blocked: %+v", ss)
	}
}

// BenchmarkDrawSync measures the seed path: a full-batch COTs draw
// that runs one protocol iteration inline.
func BenchmarkDrawSync(b *testing.B) {
	params := benchParams()
	src, _ := ferretDealtSource(b, params)
	p := NewDealt(src, Config{})
	defer p.Close()
	n := params.Usable()
	b.SetBytes(int64(n) * block.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SenderCOTs(n); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, _, err := p.ReceiverCOTs(n); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDrawPrewarmed measures the same full-batch draw against a
// warm pool; refill time is excluded (it runs ahead of demand on the
// worker), so this is the steady-state latency a bursty consumer sees.
func BenchmarkDrawPrewarmed(b *testing.B) {
	params := benchParams()
	src, _ := ferretDealtSource(b, params)
	p := NewDealt(src, Config{Depth: 3})
	defer p.Close()
	n := params.Usable()
	b.SetBytes(int64(n) * block.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Wait for a full batch AND a parked worker so the timed draw
		// measures dispensing latency, not refill lock contention.
		for {
			p.mu.Lock()
			ready := p.s.ready() >= n && !p.filling
			p.mu.Unlock()
			if ready {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
		if _, err := p.SenderCOTs(n); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, _, err := p.ReceiverCOTs(n); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
