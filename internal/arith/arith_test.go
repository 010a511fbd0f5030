package arith

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ironman/internal/cot"
	"ironman/internal/transport"
)

// parties wires two arith parties with dealer COT pools in both
// directions; the handshake is interactive so construction runs
// concurrently.
func parties(t *testing.T, budget int) (*Party, *Party) {
	t.Helper()
	connA, connB := transport.Pipe()
	sAB, rAB, err := cot.RandomPools(budget)
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := cot.RandomPools(budget)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		p   *Party
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := NewParty(connA, sAB, rBA, true)
		ch <- res{p, err}
	}()
	b, err := NewParty(connB, sBA, rAB, false)
	if err != nil {
		t.Fatal(err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	return ra.p, b
}

// run2 executes the two party closures concurrently.
func run2(t *testing.T, fa, fb func() error) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	var errA error
	go func() {
		defer wg.Done()
		errA = fa()
	}()
	if err := fb(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if errA != nil {
		t.Fatal(errA)
	}
}

func TestLocalOpsAndReveal(t *testing.T) {
	a, b := parties(t, 0)
	xs := []uint64{1, 2, 3, ^uint64(0)}
	ys := []uint64{10, 20, 30, 40}
	eval := func(p *Party, mineX bool) ([]uint64, error) {
		x := p.NewPrivate(xs, mineX)
		y := p.NewPrivate(ys, !mineX)
		s, err := Add(x, y)
		if err != nil {
			return nil, err
		}
		s, err = p.AddPublic(s, []uint64{100, 100, 100, 100})
		if err != nil {
			return nil, err
		}
		s = MulPublic(s, 3)
		d, err := Sub(s, x)
		if err != nil {
			return nil, err
		}
		return p.Reveal(d)
	}
	var openA, openB []uint64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { o, err := eval(b, false); openB = o; return err })
	for i := range xs {
		want := 3*(xs[i]+ys[i]+100) - xs[i]
		if openA[i] != want || openB[i] != want {
			t.Fatalf("local ops wrong at %d: %d/%d want %d", i, openA[i], openB[i], want)
		}
	}
	if _, err := Add(Share{1}, Share{}); err == nil {
		t.Fatal("Add must reject length mismatch")
	}
	if _, err := Sub(Share{1}, Share{1, 2}); err == nil {
		t.Fatal("Sub must reject length mismatch")
	}
}

func TestTriplesAndMulVec(t *testing.T) {
	const n = 33
	rng := rand.New(rand.NewSource(11))
	xs := make([]uint64, n)
	ys := make([]uint64, n)
	for i := range xs {
		xs[i] = rng.Uint64()
		ys[i] = rng.Uint64()
	}
	a, b := parties(t, 64*n)
	var tripleWire int64
	eval := func(p *Party, mineX bool) ([]uint64, error) {
		base := p.conn.Stats().TotalBytes()
		tr, err := p.NewTriples(n)
		if err != nil {
			return nil, err
		}
		if mineX {
			tripleWire = p.conn.Stats().TotalBytes() - base
		}
		x := p.NewPrivate(xs, mineX)
		y := p.NewPrivate(ys, !mineX)
		z, err := p.MulVec(x, y, tr)
		if err != nil {
			return nil, err
		}
		return p.Reveal(z)
	}
	var openA, openB []uint64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { o, err := eval(b, false); openB = o; return err })
	for i := range xs {
		want := xs[i] * ys[i]
		if openA[i] != want || openB[i] != want {
			t.Fatalf("MulVec wrong at %d: %x/%x want %x", i, openA[i], openB[i], want)
		}
	}
	if a.Triples != n || a.Mults != n {
		t.Fatalf("counter wrong: %d triples, %d mults", a.Triples, a.Mults)
	}
	// Measured cost of a triple against the ppml.ArithTripleCost model:
	// 128 COTs (64 per direction) and 1056 B on the wire, the latter
	// plus at most 5% of transport framing.
	if used := a.Out.Used() + a.In.Used(); used != 128*n {
		t.Fatalf("%d COTs for %d triples, want 128 per triple", used, n)
	}
	if per := float64(tripleWire) / n; per < 1056 || per > 1.05*1056 {
		t.Fatalf("%.1f wire bytes per triple, want within [1056, 1.05*1056]", per)
	}
}

func TestTriplesExhaustAndBudget(t *testing.T) {
	a, b := parties(t, 64*2)
	run2(t, func() error {
		tr, err := a.NewTriples(2)
		if err != nil {
			return err
		}
		if _, err := a.MulVec(make(Share, 3), make(Share, 3), tr); !errors.Is(err, cot.ErrExhausted) {
			t.Errorf("MulVec beyond triple batch: got %v", err)
		}
		// Pool budget exhausted before any traffic: symmetric local error.
		if _, err := a.NewTriples(1); !errors.Is(err, cot.ErrExhausted) {
			t.Errorf("NewTriples beyond pool: got %v", err)
		}
		return nil
	}, func() error {
		tr, err := b.NewTriples(2)
		if err != nil {
			return err
		}
		if _, err := b.MulVec(make(Share, 3), make(Share, 3), tr); !errors.Is(err, cot.ErrExhausted) {
			t.Errorf("MulVec beyond triple batch: got %v", err)
		}
		if _, err := b.NewTriples(1); !errors.Is(err, cot.ErrExhausted) {
			t.Errorf("NewTriples beyond pool: got %v", err)
		}
		return nil
	})
}

func TestMatMul(t *testing.T) {
	const m, k, n = 5, 7, 3
	rng := rand.New(rand.NewSource(21))
	xs := make([]uint64, m*k)
	ys := make([]uint64, k*n)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	for i := range ys {
		ys[i] = rng.Uint64()
	}
	a, b := parties(t, 64*m*k*n)
	eval := func(p *Party, mineX bool) ([]uint64, error) {
		tr, err := p.NewMatTriple(m, k, n)
		if err != nil {
			return nil, err
		}
		x := p.NewPrivate(xs, mineX)
		y := p.NewPrivate(ys, !mineX)
		z, err := p.MatMul(x, y, tr)
		if err != nil {
			return nil, err
		}
		return p.Reveal(z)
	}
	var openA, openB []uint64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { o, err := eval(b, false); openB = o; return err })
	want := matMulPlain(xs, ys, m, k, n)
	for i := range want {
		if openA[i] != want[i] || openB[i] != want[i] {
			t.Fatalf("MatMul wrong at %d: %x/%x want %x", i, openA[i], openB[i], want[i])
		}
	}
}

func TestMatTripleSingleUse(t *testing.T) {
	const m, k, n = 2, 3, 2
	a, b := parties(t, 64*m*k*n)
	check := func(p *Party) error {
		tr, err := p.NewMatTriple(m, k, n)
		if err != nil {
			return err
		}
		if _, err := p.MatMul(make(Share, m*k), make(Share, k*n), tr); err != nil {
			return err
		}
		// A second use would let the peer difference the two opened D
		// matrices and learn X1-X2; it must be rejected locally.
		if _, err := p.MatMul(make(Share, m*k), make(Share, k*n), tr); !errors.Is(err, cot.ErrExhausted) {
			t.Errorf("MatMul triple reuse: got %v", err)
		}
		return nil
	}
	run2(t, func() error { return check(a) }, func() error { return check(b) })
}

func TestFixedPointMulTrunc(t *testing.T) {
	f := Fixed{Frac: 16}
	xs := []float64{1.5, -2.25, 0.125, -100.0, 3.14159}
	ys := []float64{2.0, 0.5, -8.0, 0.01, -2.71828}
	n := len(xs)
	a, b := parties(t, 64*n)
	eval := func(p *Party, mineX bool) ([]float64, error) {
		tr, err := p.NewTriples(n)
		if err != nil {
			return nil, err
		}
		x := p.NewPrivate(f.EncodeVec(xs), mineX)
		y := p.NewPrivate(f.EncodeVec(ys), !mineX)
		z, err := p.MulVec(x, y, tr)
		if err != nil {
			return nil, err
		}
		z = p.TruncVec(z, f.Frac)
		open, err := p.Reveal(z)
		if err != nil {
			return nil, err
		}
		return f.DecodeVec(open), nil
	}
	var openA []float64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { _, err := eval(b, false); return err })
	tol := 2.5 / float64(int64(1)<<16) // decode rounding + trunc off-by-one
	for i := range xs {
		// The protocol computes on the quantized inputs, so compare
		// against the product of the encodings, not the exact reals.
		want := f.Decode(f.Encode(xs[i])) * f.Decode(f.Encode(ys[i]))
		if math.Abs(openA[i]-want) > tol {
			t.Fatalf("fixed mul wrong at %d: %g want %g", i, openA[i], want)
		}
	}
}

func TestA2BB2ARoundTrip(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(31))
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	// Budget: full-width adder ANDs + B2A word OTs.
	a, b := parties(t, 800*n)
	eval := func(p *Party, mineX bool) ([]uint64, error) {
		x := p.NewPrivate(xs, mineX)
		planes, err := p.A2B(x, 64)
		if err != nil {
			return nil, err
		}
		back, err := p.B2A(planes)
		if err != nil {
			return nil, err
		}
		return p.Reveal(back)
	}
	var openA, openB []uint64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { o, err := eval(b, false); openB = o; return err })
	for i := range xs {
		if openA[i] != xs[i] || openB[i] != xs[i] {
			t.Fatalf("A2B/B2A roundtrip wrong at %d: %x/%x want %x", i, openA[i], openB[i], xs[i])
		}
	}
}

func TestNarrowB2A(t *testing.T) {
	// Boolean-born shares (no A2B): 8-bit planes convert to additive
	// shares of the unsigned 8-bit values.
	const n = 16
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i * 16)
	}
	a, b := parties(t, 8*n)
	eval := func(p *Party, mine bool) ([]uint64, error) {
		planes := p.Bool.NewPrivateVec(vals, 8, mine)
		back, err := p.B2A(planes)
		if err != nil {
			return nil, err
		}
		return p.Reveal(back)
	}
	var openA []uint64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { _, err := eval(b, false); return err })
	for i := range vals {
		if openA[i] != vals[i] {
			t.Fatalf("narrow B2A wrong at %d: %d want %d", i, openA[i], vals[i])
		}
	}
}

// TestArithBooleanPipeline runs the full hybrid flow on one session:
// fixed-point matvec -> truncate -> A2B -> packed GMW ReLU -> B2A ->
// reveal, cross-checked against the plaintext computation.
func TestArithBooleanPipeline(t *testing.T) {
	const h, d = 6, 8
	f := Fixed{Frac: 12}
	rng := rand.New(rand.NewSource(41))
	w := make([]float64, h*d)
	x := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	budget := 64*h*d + 900*h
	a, b := parties(t, budget)
	eval := func(p *Party, mineW bool) ([]float64, error) {
		tr, err := p.NewMatTriple(h, d, 1)
		if err != nil {
			return nil, err
		}
		ws := p.NewPrivate(f.EncodeVec(w), mineW)
		xs := p.NewPrivate(f.EncodeVec(x), !mineW)
		z, err := p.MatVec(ws, xs, tr)
		if err != nil {
			return nil, err
		}
		z = p.TruncVec(z, f.Frac)
		planes, err := p.A2B(z, 64)
		if err != nil {
			return nil, err
		}
		relu, err := p.Bool.ReLUVec(planes)
		if err != nil {
			return nil, err
		}
		back, err := p.B2A(relu)
		if err != nil {
			return nil, err
		}
		open, err := p.Reveal(back)
		if err != nil {
			return nil, err
		}
		return f.DecodeVec(open), nil
	}
	var openA, openB []float64
	run2(t, func() error { o, err := eval(a, true); openA = o; return err },
		func() error { o, err := eval(b, false); openB = o; return err })
	tol := float64(d+2) / float64(int64(1)<<12)
	for i := 0; i < h; i++ {
		want := 0.0
		for l := 0; l < d; l++ {
			want += w[i*d+l] * x[l]
		}
		if want < 0 {
			want = 0
		}
		if math.Abs(openA[i]-want) > tol || math.Abs(openB[i]-want) > tol {
			t.Fatalf("pipeline wrong at %d: %g/%g want %g", i, openA[i], openB[i], want)
		}
	}
}
