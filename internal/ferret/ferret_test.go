package ferret

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ironman/internal/block"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// smallParams is a fast self-sustaining set: n=600 outputs, 8 trees of
// 32 leaves (256 noise support), k=128 input COTs.
func smallParams() Params { return TestParams(600, 32, 128, 8) }

// extendLockstep runs one iteration of both endpoints of an in-process
// pair concurrently (extension.ExtendLockstep, which this package cannot
// import).
func extendLockstep(s *Sender, r *Receiver) ([]block.Block, *ReceiverOutput, error) {
	var z []block.Block
	var serr error
	done := make(chan struct{})
	go func() {
		z, serr = s.Extend()
		close(done)
	}()
	out, rerr := r.Extend()
	<-done
	if serr != nil {
		return nil, nil, serr
	}
	return z, out, rerr
}

func runIterations(t *testing.T, params Params, opts Options, iters int) {
	t.Helper()
	a, b := transport.Pipe()
	delta := block.New(0xaaaa, 0x5555)
	s, r, err := DealPools(a, b, delta, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		type sres struct {
			z   []block.Block
			err error
		}
		ch := make(chan sres, 1)
		go func() {
			z, err := s.Extend()
			ch <- sres{z, err}
		}()
		out, err := r.Extend()
		if err != nil {
			t.Fatalf("iter %d receiver: %v", it, err)
		}
		sr := <-ch
		if sr.err != nil {
			t.Fatalf("iter %d sender: %v", it, sr.err)
		}
		if len(sr.z) != params.Usable() {
			t.Fatalf("iter %d: got %d outputs, want %d", it, len(sr.z), params.Usable())
		}
		if err := Check(delta, sr.z, out); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		// The receiver's choice bits should be roughly balanced.
		ones := 0
		for _, bit := range out.Bits {
			if bit {
				ones++
			}
		}
		frac := float64(ones) / float64(len(out.Bits))
		if frac < 0.3 || frac > 0.7 {
			t.Fatalf("iter %d: choice bits badly unbalanced (%f)", it, frac)
		}
	}
	if s.Iterations != iters || r.Iterations != iters {
		t.Fatal("iteration counters wrong")
	}
}

func TestExtendWithDealerSmall(t *testing.T) {
	runIterations(t, smallParams(), Options{}, 3)
}

func TestExtendBinaryAESMatchesProtocol(t *testing.T) {
	// The classic Ferret configuration: binary trees, AES PRG.
	runIterations(t, smallParams(), Options{PRG: prg.New(prg.AES, 2)}, 2)
}

// TestExtendGolden pins a seeded dealt run byte for byte under both
// ends of the Figure 6 design space: SHA-256 of z‖y‖x over two
// lockstep Extends, and the traffic through the sender's conn. The
// values were recorded while the PRG was still an interface with one
// implementation per primitive.
func TestExtendGolden(t *testing.T) {
	for _, g := range []struct {
		prg   prg.PRG
		hash  string
		bytes int64
	}{
		{prg.New(prg.ChaCha8, 4), "abc7dd6fb44a6bc31b0ef4adf5735c0b39259fe7fc053d79fecb7b1cfbf55e95", 4944},
		{prg.New(prg.AES, 2), "a76feabfc6bdbb3b2afad7c969cb752d97f58f797a4044420d8ce1421d74ee7b", 2896},
	} {
		connS, connR := transport.Pipe()
		delta := block.New(0x0123456789abcdef, 0xfedcba9876543210)
		opts := Options{PRG: g.prg, Workers: 3, Seed: determinismSeed}
		s, r, err := DealPools(connS, connR, delta, smallParams(), opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for it := 0; it < 2; it++ {
			z, out, err := extendLockstep(s, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(delta, z, out); err != nil {
				t.Fatal(err)
			}
			h.Write(block.ToBytes(z))
			h.Write(block.ToBytes(out.Blocks))
			for _, bit := range out.Bits {
				if bit {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.hash {
			t.Errorf("%v: sha256(z‖y‖x) = %s, want %s", g.prg, got, g.hash)
		}
		if got := connS.Stats().TotalBytes(); got != g.bytes {
			t.Errorf("%v: sender conn carried %d bytes, want %d", g.prg, got, g.bytes)
		}
		connS.Close()
		connR.Close()
	}
}

func TestExtendPartialCover(t *testing.T) {
	// t·ℓ < n, as in the paper's 2^23/2^24 rows: tail carries no noise
	// but correlations must still verify.
	p := TestParams(300, 32, 96, 8) // 8*32=256 < 300
	runIterations(t, p, Options{}, 2)
}

func TestFullInitViaIKNP(t *testing.T) {
	// End-to-end init: base OT + IKNP + one extension iteration.
	params := smallParams()
	a, b := transport.Pipe()
	delta := block.New(0x1234, 0x4321)
	type sres struct {
		s   *Sender
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		s, err := NewSender(a, delta, params, Options{})
		ch <- sres{s, err}
	}()
	r, err := NewReceiver(b, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	s := sr.s

	zCh := make(chan []block.Block, 1)
	go func() {
		z, err := s.Extend()
		if err != nil {
			t.Error(err)
		}
		zCh <- z
	}()
	out, err := r.Extend()
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(delta, <-zCh, out); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Parameters(t *testing.T) {
	if len(Table4) != 5 {
		t.Fatalf("Table4 has %d rows, want 5", len(Table4))
	}
	for _, p := range Table4 {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Every set must deliver (almost) its nominal OT count. The
		// paper's table counts usable = n - k; our stricter accounting
		// also reserves the t·log2(ℓ) puncture COTs, costing < 0.2%.
		if p.N-p.K < p.NumOTs {
			t.Errorf("%s: n-k = %d below nominal %d", p.Name, p.N-p.K, p.NumOTs)
		}
		if float64(p.Usable()) < 0.998*float64(p.NumOTs) {
			t.Errorf("%s: usable %d far below nominal %d", p.Name, p.Usable(), p.NumOTs)
		}
		if p.BitSec < 128 {
			t.Errorf("%s: bit security %f below target", p.Name, p.BitSec)
		}
		// SPCOT support covers all but a small tail of the code length.
		if float64(p.T*p.L) < 0.94*float64(p.N) {
			t.Errorf("%s: SPCOT covers only %d of %d", p.Name, p.T*p.L, p.N)
		}
	}
}

func TestParamsByName(t *testing.T) {
	p, err := ParamsByName("2^22")
	if err != nil || p.N != 4531924 {
		t.Fatalf("lookup failed: %v %+v", err, p)
	}
	if _, err := ParamsByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Name: "zero"},
		{Name: "nosustain", N: 10, L: 32, K: 100, T: 8, D: 4},
		{Name: "lowk", N: 600, L: 32, K: 2, T: 8, D: 4},
		// A 48-leaf tree used to validate and then panic in the first
		// Extend's GGM worker goroutine.
		TestParams(600, 48, 128, 16),
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s (ℓ=%d) should fail validation", p.Name, p.L)
		}
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	if _, _, err := DealPools(a, b, block.New(1, 2), TestParams(600, 48, 128, 16), Options{}); err == nil {
		t.Fatal("DealPools accepted a non-power-of-two tree size")
	}
}

func TestReserveAccounting(t *testing.T) {
	p := smallParams()
	// 8 trees of 32 leaves: 8*5 = 40 puncture COTs + 128 LPN inputs.
	if p.Reserve() != 168 {
		t.Fatalf("Reserve = %d, want 168", p.Reserve())
	}
	if p.Usable() != 600-168 {
		t.Fatalf("Usable = %d", p.Usable())
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	delta := block.New(1, 2)
	z := []block.Block{block.New(3, 4)}
	out := &ReceiverOutput{Bits: []bool{false}, Blocks: []block.Block{block.New(3, 4)}}
	if err := Check(delta, z, out); err != nil {
		t.Fatal(err)
	}
	out.Bits[0] = true
	if err := Check(delta, z, out); err == nil {
		t.Fatal("corrupted bit must fail the check")
	}
	if err := Check(delta, z, &ReceiverOutput{Bits: []bool{false}}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestCommunicationIsSublinear(t *testing.T) {
	// PCG-style OTE's selling point (§2.3): the per-iteration traffic is
	// far below 16 bytes per produced COT (the trivial transfer size).
	params := smallParams()
	a, b := transport.Pipe()
	delta := block.New(1, 9)
	s, r, err := DealPools(a, b, delta, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := s.Extend(); err != nil && !strings.Contains(err.Error(), "closed") {
			t.Error(err)
		}
	}()
	if _, err := r.Extend(); err != nil {
		t.Fatal(err)
	}
	total := a.Stats().TotalBytes()
	naive := int64(params.Usable()) * 16
	if total >= naive/2 {
		t.Fatalf("traffic %d B not sublinear vs naive %d B", total, naive)
	}
}

func benchExtend(b *testing.B, params Params, opts Options) {
	a, c := transport.Pipe()
	delta := block.New(1, 2)
	s, r, err := DealPools(a, c, delta, params, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(params.Usable()) * block.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() {
			if _, err := s.Extend(); err != nil {
				b.Error(err)
			}
			close(done)
		}()
		if _, err := r.Extend(); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// BenchmarkExtend2to20 measures the real Go protocol on the smallest
// Table 4 row — the software baseline datapoint of Figure 1(b).
func BenchmarkExtend2to20(b *testing.B) {
	benchExtend(b, Table4[0], Options{})
}

func BenchmarkExtend2to20BinaryAES(b *testing.B) {
	benchExtend(b, Table4[0], Options{PRG: prg.New(prg.AES, 2)})
}
