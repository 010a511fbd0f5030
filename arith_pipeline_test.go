package ironman

import (
	"math"
	"net"
	"testing"

	"ironman/internal/arith"
	"ironman/internal/cot"
	"ironman/internal/ferret"
)

// tcpPair returns two framed endpoints of a real loopback TCP
// connection.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { dial.Close(); a.c.Close() })
	return NewTCPConn(dial), NewTCPConn(a.c)
}

// TestArithPipelineOverTCP is the full cross-package path: prefetching
// correlation pools (internal/pool via NewDealtPair) feed COTs into
// GMW-compatible pools, two arith parties over a REAL TCP loopback
// run a fixed-point matvec on a Beaver matrix triple, truncate, bridge
// A2B into the packed GMW engine for ReLU, bridge back with B2A, and
// reveal — cross-checked against the plaintext computation. Run under
// -race by scripts/ci.sh.
func TestArithPipelineOverTCP(t *testing.T) {
	const m, k = 8, 12
	f := arith.Fixed{Frac: 12}

	// Pool-fed correlations: one prefetching dealt pair per OT
	// direction, drawn through the async pool layer.
	params := ferret.TestParams(60_000, 1024, 6000, 32)
	opts := Options{Prefetch: 2}
	budget := 64*m*k + 900*m
	mkPools := func() (*cot.SenderPool, *cot.ReceiverPool) {
		t.Helper()
		connS, connR := Pipe()
		delta := RandomDelta()
		s, r, err := NewDealtPair(connS, connR, delta, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sp, err := s.GMWPool(budget)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := r.GMWPool(budget)
		if err != nil {
			t.Fatal(err)
		}
		if s.PoolStats().Dispensed == 0 || r.p.Stats().Dispensed == 0 {
			t.Fatal("pools did not feed the draw")
		}
		return sp, rp
	}
	sAB, rAB := mkPools()
	sBA, rBA := mkPools()
	connA, connB := tcpPair(t)

	// Private inputs: party A the matrix, party B the vector.
	w := make([]float64, m*k)
	x := make([]float64, k)
	for i := range w {
		w[i] = math.Sin(float64(i + 1))
	}
	for i := range x {
		x[i] = math.Cos(float64(3 * i))
	}

	eval := func(conn Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) ([]float64, error) {
		p, err := arith.NewParty(conn, out, in, first)
		if err != nil {
			return nil, err
		}
		tr, err := p.NewMatTriple(m, k, 1)
		if err != nil {
			return nil, err
		}
		ws := p.NewPrivate(f.EncodeVec(w), first)
		xs := p.NewPrivate(f.EncodeVec(x), !first)
		z, err := p.MatVec(ws, xs, tr)
		if err != nil {
			return nil, err
		}
		z = p.TruncVec(z, f.Frac)
		planes, err := p.A2B(z, 64)
		if err != nil {
			return nil, err
		}
		kept, err := p.Bool.ReLUVec(planes)
		if err != nil {
			return nil, err
		}
		back, err := p.B2A(kept)
		if err != nil {
			return nil, err
		}
		open, err := p.Reveal(back)
		if err != nil {
			return nil, err
		}
		return f.DecodeVec(open), nil
	}

	type res struct {
		vals []float64
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		vals, err := eval(connA, sAB, rBA, true)
		ch <- res{vals, err}
	}()
	gotB, errB := eval(connB, sBA, rAB, false)
	if errB != nil {
		t.Fatal(errB)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}

	qw, qx := f.DecodeVec(f.EncodeVec(w)), f.DecodeVec(f.EncodeVec(x))
	tol := float64(k+2) / float64(int64(1)<<f.Frac)
	for i := 0; i < m; i++ {
		want := 0.0
		for l := 0; l < k; l++ {
			want += qw[i*k+l] * qx[l]
		}
		want = math.Max(want, 0)
		if math.Abs(ra.vals[i]-want) > tol || math.Abs(gotB[i]-want) > tol {
			t.Fatalf("pipeline wrong at %d: %g/%g want %g", i, ra.vals[i], gotB[i], want)
		}
	}
}
