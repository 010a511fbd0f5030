package gmw

import (
	"errors"
	"math/rand"
	"testing"

	"ironman/internal/cot"
)

func TestPackedShareRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 130, 1000} {
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		s := PackBools(bits)
		if s.Len() != n {
			t.Fatalf("n=%d: Len %d", n, s.Len())
		}
		got := s.Bools()
		for i := range bits {
			if got[i] != bits[i] || s.Bit(i) != bits[i] {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
	}
}

func TestAppendSliceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		segs := make([][]bool, 1+rng.Intn(5))
		var all PackedShare
		var flat []bool
		for i := range segs {
			seg := make([]bool, rng.Intn(150))
			for j := range seg {
				seg[j] = rng.Intn(2) == 1
			}
			segs[i] = seg
			flat = append(flat, seg...)
			all.appendBits(PackBools(seg))
		}
		if all.Len() != len(flat) {
			t.Fatalf("append length %d, want %d", all.Len(), len(flat))
		}
		off := 0
		for i, seg := range segs {
			got := all.sliceBits(off, len(seg)).Bools()
			for j := range seg {
				if got[j] != seg[j] {
					t.Fatalf("trial %d seg %d bit %d mismatch", trial, i, j)
				}
			}
			off += len(seg)
		}
	}
}

func TestPackUnpackVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 5, 32, 64} {
		vals := make([]uint64, 77)
		mask := ^uint64(0)
		if w < 64 {
			mask = 1<<uint(w) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		planes := PackVec(vals, w)
		got := UnpackVec(planes)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("w=%d: val %d round trip %x != %x", w, i, got[i], vals[i])
			}
		}
	}
}

// TestRandomCircuitsCrossCheck runs randomized circuits over packed
// shares, cross-checking every wire against a plaintext reference
// evaluation. The circuit structure is public (derived from a shared
// seed), the inputs private.
func TestRandomCircuitsCrossCheck(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 1 + rng.Intn(200)
		depth := 1 + rng.Intn(6)
		// Plaintext inputs, one vector per party.
		xa := make([]bool, n)
		xb := make([]bool, n)
		for i := range xa {
			xa[i] = rng.Intn(2) == 1
			xb[i] = rng.Intn(2) == 1
		}
		ops := make([]int, depth)
		for i := range ops {
			ops[i] = rng.Intn(3) // 0 XOR, 1 AND, 2 NOT-then-AND
		}
		// Plaintext reference.
		ref := make([]bool, n)
		cur := make([]bool, n)
		copy(cur, xa)
		for _, op := range ops {
			for i := range ref {
				switch op {
				case 0:
					ref[i] = cur[i] != xb[i]
				case 1:
					ref[i] = cur[i] && xb[i]
				case 2:
					ref[i] = !cur[i] && xb[i]
				}
			}
			copy(cur, ref)
		}

		a, b := parties(t, n*depth+8)
		eval := func(p *Party, mineA bool) ([]bool, error) {
			x := p.NewPrivatePacked(xa, mineA)
			y := p.NewPrivatePacked(xb, !mineA)
			for _, op := range ops {
				var err error
				switch op {
				case 0:
					x, err = XorPacked(x, y)
				case 1:
					x, err = p.AndPacked(x, y)
				case 2:
					x, err = p.AndPacked(p.NotPacked(x), y)
				}
				if err != nil {
					return nil, err
				}
			}
			return p.RevealPacked(x)
		}
		var openA, openB []bool
		run2(t, func() error {
			open, err := eval(a, true)
			openA = open
			return err
		}, func() error {
			open, err := eval(b, false)
			openB = open
			return err
		})
		for i := range ref {
			if openA[i] != ref[i] || openB[i] != ref[i] {
				t.Fatalf("trial %d: wire %d = %v/%v, want %v",
					trial, i, openA[i], openB[i], ref[i])
			}
		}
	}
}

// TestGreaterThanVecWidths covers the width-1 and width-64 comparator
// edges plus random widths in between.
func TestGreaterThanVecWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 3, 5, 17, 32, 33, 64} {
		const n = 100
		mask := ^uint64(0)
		if w < 64 {
			mask = 1<<uint(w) - 1
		}
		xs := make([]uint64, n)
		ys := make([]uint64, n)
		for i := range xs {
			xs[i] = rng.Uint64() & mask
			if i%5 == 0 {
				ys[i] = xs[i] // exercise the equality edge
			} else {
				ys[i] = rng.Uint64() & mask
			}
		}
		a, b := parties(t, (3*w-2)*n+8)
		var got []bool
		run2(t, func() error {
			xp := a.NewPrivateVec(xs, w, true)
			yp := a.NewPrivateVec(make([]uint64, n), w, false)
			gt, err := a.GreaterThanVec(xp, yp)
			if err != nil {
				return err
			}
			open, err := a.RevealPacked(gt)
			got = open
			return err
		}, func() error {
			xp := b.NewPrivateVec(make([]uint64, n), w, false)
			yp := b.NewPrivateVec(ys, w, true)
			gt, err := b.GreaterThanVec(xp, yp)
			if err != nil {
				return err
			}
			_, err = b.RevealPacked(gt)
			return err
		})
		for i := range xs {
			if got[i] != (xs[i] > ys[i]) {
				t.Fatalf("w=%d: gt(%d,%d) = %v", w, xs[i], ys[i], got[i])
			}
		}
		if a.ANDGates != (3*w-2)*n {
			t.Fatalf("w=%d: %d ANDs, want %d", w, a.ANDGates, (3*w-2)*n)
		}
		if a.Exchanges != ComparatorExchanges(w) {
			t.Fatalf("w=%d: %d exchanges, want %d", w, a.Exchanges, ComparatorExchanges(w))
		}
	}
}

func TestMuxVecAndReLUVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, w = 130, 16
	av := make([]uint64, n)
	bv := make([]uint64, n)
	cv := make([]bool, n)
	for i := range av {
		av[i] = rng.Uint64() & (1<<w - 1)
		bv[i] = rng.Uint64() & (1<<w - 1)
		cv[i] = rng.Intn(2) == 1
	}
	a, b := parties(t, 3*n*w+8)
	var muxed, relued []uint64
	run2(t, func() error {
		c := a.NewPrivatePacked(cv, true)
		x := a.NewPrivateVec(av, w, true)
		y := a.NewPrivateVec(bv, w, true)
		m, err := a.MuxVec(c, x, y)
		if err != nil {
			return err
		}
		open, err := a.RevealVec(m)
		if err != nil {
			return err
		}
		muxed = open
		r, err := a.ReLUVec(x)
		if err != nil {
			return err
		}
		open, err = a.RevealVec(r)
		relued = open
		return err
	}, func() error {
		c := b.NewPrivatePacked(make([]bool, n), false)
		x := b.NewPrivateVec(av, w, false)
		y := b.NewPrivateVec(bv, w, false)
		m, err := b.MuxVec(c, x, y)
		if err != nil {
			return err
		}
		if _, err := b.RevealVec(m); err != nil {
			return err
		}
		r, err := b.ReLUVec(x)
		if err != nil {
			return err
		}
		_, err = b.RevealVec(r)
		return err
	})
	for i := range av {
		want := bv[i]
		if cv[i] {
			want = av[i]
		}
		if muxed[i] != want {
			t.Fatalf("MuxVec elem %d = %x, want %x", i, muxed[i], want)
		}
		wantR := av[i]
		if av[i]>>(w-1)&1 == 1 { // negative in two's complement
			wantR = 0
		}
		if relued[i] != wantR {
			t.Fatalf("ReLUVec elem %d = %x, want %x", i, relued[i], wantR)
		}
	}
	// MuxVec and ReLUVec are each ONE batched exchange.
	if a.Exchanges != 2 {
		t.Fatalf("MuxVec+ReLUVec took %d exchanges, want 2", a.Exchanges)
	}
}

func TestZeroLengthShares(t *testing.T) {
	a, b := parties(t, 4)
	run2(t, func() error {
		z, err := a.AndPacked(NewPacked(0), NewPacked(0))
		if err != nil || z.Len() != 0 {
			t.Errorf("packed zero-length AND: %v, len %d", err, z.Len())
		}
		open, err := a.RevealPacked(NewPacked(0))
		if err != nil || len(open) != 0 {
			t.Errorf("zero-length RevealPacked: %v", err)
		}
		return nil
	}, func() error {
		if _, err := b.AndPacked(NewPacked(0), NewPacked(0)); err != nil {
			return err
		}
		_, err := b.RevealPacked(NewPacked(0))
		return err
	})
	if a.ANDGates != 0 {
		t.Fatalf("zero-length layers consumed %d AND gates", a.ANDGates)
	}
}

// TestPoolExhaustionBatchedLayer drains the pools with a batched AND
// layer larger than the budget: both parties must fail loudly with
// cot.ErrExhausted before any wire traffic, not deadlock.
func TestPoolExhaustionBatchedLayer(t *testing.T) {
	a, b := parties(t, 16)
	planes := func(p *Party) [][2]PackedShare {
		pairs := make([][2]PackedShare, 4)
		for i := range pairs {
			pairs[i] = [2]PackedShare{p.NewPublicPacked(make([]bool, 10)), NewPacked(10)}
		}
		return pairs
	}
	var errA, errB error
	run2(t, func() error {
		_, errA = a.AndPackedMany(planes(a))
		return nil
	}, func() error {
		_, errB = b.AndPackedMany(planes(b))
		return nil
	})
	if !errors.Is(errA, cot.ErrExhausted) || !errors.Is(errB, cot.ErrExhausted) {
		t.Fatalf("want ErrExhausted on both sides, got %v / %v", errA, errB)
	}
}

// TestPackedWireEfficiency pins the bytes one AndPacked layer of n
// gates moves through the first party's conn, both directions, handshake
// excluded: two bit-payload OT exchanges of 3·⌈n/8⌉ bytes each, so
// 0.75 B/AND once n fills whole bytes.
func TestPackedWireEfficiency(t *testing.T) {
	for _, tc := range []struct {
		n     int
		bytes int64
	}{{1, 4}, {65, 52}, {4096, 3072}} {
		a, b := parties(t, tc.n)
		base := a.conn.Stats().TotalBytes()
		run2(t, func() error {
			_, err := a.AndPacked(NewPacked(tc.n), NewPacked(tc.n))
			return err
		}, func() error {
			_, err := b.AndPacked(NewPacked(tc.n), NewPacked(tc.n))
			return err
		})
		if got := a.conn.Stats().TotalBytes() - base; got != tc.bytes {
			t.Fatalf("n=%d: AND layer moved %d bytes, want %d", tc.n, got, tc.bytes)
		}
	}
}
