package gmw

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ironman/internal/cot"
	"ironman/internal/transport"
)

// parties wires two GMW parties with dealer COT pools in both
// directions. The role handshake is interactive, so the two
// constructors run concurrently.
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

// run2 executes fa and fb concurrently (the two protocol parties).
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

func TestRoleHandshakeConflict(t *testing.T) {
	for _, first := range []bool{false, true} {
		connA, connB := transport.Pipe()
		sAB, rAB, err := cot.RandomPools(4)
		if err != nil {
			t.Fatal(err)
		}
		sBA, rBA, err := cot.RandomPools(4)
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := NewParty(connA, sAB, rBA, first)
			errCh <- err
		}()
		_, errB := NewParty(connB, sBA, rAB, first)
		errA := <-errCh
		if !errors.Is(errA, ErrRoleConflict) || !errors.Is(errB, ErrRoleConflict) {
			t.Fatalf("first=%v: want ErrRoleConflict on both sides, got %v / %v", first, errA, errB)
		}
	}
}

// TestAndTruthTable evaluates the four (x_A, y_B) rows of the AND truth
// table as the four lanes of one AndPacked layer: x is party A's
// private input, y party B's.
func TestAndTruthTable(t *testing.T) {
	xa := []bool{false, false, true, true}
	yb := []bool{false, true, false, true}
	a, b := parties(t, 8)
	var ra, rb []bool
	run2(t, func() error {
		z, err := a.AndPacked(a.NewPrivatePacked(xa, true), a.NewPrivatePacked(make([]bool, 4), false))
		if err != nil {
			return err
		}
		ra, err = a.RevealPacked(z)
		return err
	}, func() error {
		z, err := b.AndPacked(b.NewPrivatePacked(make([]bool, 4), false), b.NewPrivatePacked(yb, true))
		if err != nil {
			return err
		}
		rb, err = b.RevealPacked(z)
		return err
	})
	for i := range xa {
		want := xa[i] && yb[i]
		if ra[i] != want || rb[i] != want {
			t.Fatalf("AND(%v,%v) = %v/%v, want %v", xa[i], yb[i], ra[i], rb[i], want)
		}
	}
	if a.ANDGates != 4 || a.Exchanges != 1 {
		t.Fatalf("truth table cost %d ANDs in %d exchanges, want 4 in 1", a.ANDGates, a.Exchanges)
	}
}

// TestXorNotLocal checks the free gates at a length that spills one
// bit into a second limb: XorPacked is element-wise, NotPacked flips
// only the first party's share, and neither sets a bit past Len().
func TestXorNotLocal(t *testing.T) {
	const n = 65
	a, b := parties(t, 1)
	rng := rand.New(rand.NewSource(5))
	xb := make([]bool, n)
	yb := make([]bool, n)
	for i := range xb {
		xb[i] = rng.Intn(2) == 1
		yb[i] = rng.Intn(2) == 1
	}
	x, y := PackBools(xb), PackBools(yb)
	z, err := XorPacked(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if z.Bit(i) != (xb[i] != yb[i]) {
			t.Fatalf("XorPacked bit %d wrong", i)
		}
	}
	na, nb := a.NotPacked(x), b.NotPacked(x)
	for i := 0; i < n; i++ {
		if na.Bit(i) == xb[i] {
			t.Fatalf("first party must flip bit %d on NotPacked", i)
		}
		if nb.Bit(i) != xb[i] {
			t.Fatalf("second party must not flip bit %d on NotPacked", i)
		}
	}
	for _, s := range []PackedShare{z, na, nb} {
		if tail := s.limbs[1] >> 1; tail != 0 {
			t.Fatalf("bits past Len() set: %#x", tail)
		}
	}
}

// TestGreaterThanExhaustive4Bit compares every 4-bit (x, y) pair in one
// GreaterThanVec call, one pair per lane: x is party A's private input,
// y party B's.
func TestGreaterThanExhaustive4Bit(t *testing.T) {
	const w, n = 4, 256
	xs := make([]uint64, n)
	ys := make([]uint64, n)
	for i := range xs {
		xs[i], ys[i] = uint64(i>>w), uint64(i&(1<<w-1))
	}
	a, b := parties(t, (3*w-2)*n)
	var got []bool
	run2(t, func() error {
		gt, err := a.GreaterThanVec(a.NewPrivateVec(xs, w, true), a.NewPrivateVec(make([]uint64, n), w, false))
		if err != nil {
			return err
		}
		got, err = a.RevealPacked(gt)
		return err
	}, func() error {
		gt, err := b.GreaterThanVec(b.NewPrivateVec(make([]uint64, n), w, false), b.NewPrivateVec(ys, w, true))
		if err != nil {
			return err
		}
		_, err = b.RevealPacked(gt)
		return err
	})
	for i := range xs {
		if got[i] != (xs[i] > ys[i]) {
			t.Fatalf("GreaterThanVec(%d,%d) = %v", xs[i], ys[i], got[i])
		}
	}
	if a.ANDGates != 10*n {
		t.Fatalf("%d ANDs, want %d", a.ANDGates, 10*n)
	}
	if a.Exchanges != ComparatorExchanges(w) {
		t.Fatalf("%d exchanges, want %d", a.Exchanges, ComparatorExchanges(w))
	}
}

// TestRevealVecUnequalPlanes opens a bit-plane vector whose planes
// differ in length: both parties must fail with an error before any
// traffic and stay in sync for the next exchange.
func TestRevealVecUnequalPlanes(t *testing.T) {
	a, b := parties(t, 1)
	base := a.conn.Stats().TotalBytes()
	bad := func() []PackedShare { return []PackedShare{NewPacked(128), NewPacked(1)} }
	var errA, errB error
	run2(t, func() error {
		_, errA = a.RevealVec(bad())
		return nil
	}, func() error {
		_, errB = b.RevealVec(bad())
		return nil
	})
	if errA == nil || errB == nil {
		t.Fatalf("want an error on both sides, got %v / %v", errA, errB)
	}
	if moved := a.conn.Stats().TotalBytes() - base; moved != 0 {
		t.Fatalf("rejected RevealVec moved %d bytes", moved)
	}
	vals := []uint64{3, 1, 2}
	var got []uint64
	run2(t, func() error {
		var err error
		got, err = a.RevealVec(a.NewPrivateVec(vals, 2, true))
		return err
	}, func() error {
		_, err := b.RevealVec(b.NewPrivateVec(make([]uint64, len(vals)), 2, false))
		return err
	})
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("RevealVec after rejection: elem %d = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	a, _ := parties(t, 4)
	if _, err := a.AndPacked(PackBools([]bool{true}), NewPacked(2)); err == nil {
		t.Fatal("AndPacked must reject length mismatch")
	}
	if _, err := a.AndPackedMany([][2]PackedShare{{NewPacked(1), NewPacked(2)}}); err == nil {
		t.Fatal("AndPackedMany must reject pair mismatch")
	}
	if _, err := a.GreaterThanVec(zeroPlanes(4, 2), zeroPlanes(4, 3)); err == nil {
		t.Fatal("GreaterThanVec must reject width mismatch")
	}
	if _, err := a.MuxVec(NewPacked(4), zeroPlanes(4, 2), zeroPlanes(3, 2)); err == nil {
		t.Fatal("MuxVec must reject plane mismatch")
	}
	if _, err := a.AddVec(zeroPlanes(4, 2), zeroPlanes(4, 3)); err == nil {
		t.Fatal("AddVec must reject width mismatch")
	}
	if _, err := XorPacked(NewPacked(1), NewPacked(2)); err == nil {
		t.Fatal("XorPacked must reject length mismatch")
	}
}
