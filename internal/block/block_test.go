package block

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBytesRoundTrip(t *testing.T) {
	f := func(lo, hi uint64) bool {
		b := New(lo, hi)
		return FromBytes(b.Bytes()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorProperties(t *testing.T) {
	xorSelfZero := func(lo, hi uint64) bool {
		b := New(lo, hi)
		return b.Xor(b) == Block{}
	}
	if err := quick.Check(xorSelfZero, nil); err != nil {
		t.Fatalf("x^x != 0: %v", err)
	}
	xorCommutes := func(a, b, c, d uint64) bool {
		x, y := New(a, b), New(c, d)
		return x.Xor(y) == y.Xor(x)
	}
	if err := quick.Check(xorCommutes, nil); err != nil {
		t.Fatalf("xor not commutative: %v", err)
	}
	xorAssoc := func(a, b, c, d, e, f uint64) bool {
		x, y, z := New(a, b), New(c, d), New(e, f)
		return x.Xor(y).Xor(z) == x.Xor(y.Xor(z))
	}
	if err := quick.Check(xorAssoc, nil); err != nil {
		t.Fatalf("xor not associative: %v", err)
	}
}

func TestBit(t *testing.T) {
	set := []int{0, 1, 7, 63, 64, 65, 127}
	var b Block
	for _, i := range set {
		if i < 64 {
			b.Lo |= 1 << uint(i)
		} else {
			b.Hi |= 1 << uint(i-64)
		}
	}
	want := make(map[int]int)
	for _, i := range set {
		want[i] = 1
	}
	for i := 0; i < 8*Size; i++ {
		if b.Bit(i) != want[i] {
			t.Fatalf("Bit(%d) = %d, want %d", i, b.Bit(i), want[i])
		}
	}
}

func TestSigmaIsPermutation(t *testing.T) {
	// σ must be invertible (it is a linear orthomorphism). Verify the
	// explicit inverse: from (Lo', Hi') = (Lo^Hi, Lo) we recover
	// Lo = Hi', Hi = Lo' ^ Hi'.
	f := func(lo, hi uint64) bool {
		b := New(lo, hi)
		s := b.Sigma()
		inv := Block{Lo: s.Hi, Hi: s.Lo ^ s.Hi}
		return inv == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// σ(x) ⊕ x must also be a permutation of x (orthomorphism property);
	// spot-check injectivity on a sample.
	seen := make(map[Block]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := New(rng.Uint64(), rng.Uint64())
		y := x.Sigma().Xor(x)
		if seen[y] {
			t.Fatal("σ(x)^x collision on random sample")
		}
		seen[y] = true
	}
}

func TestSliceHelpers(t *testing.T) {
	a := []Block{New(1, 2), New(3, 4), New(5, 6)}
	if XorAll(a) != a[0].Xor(a[1]).Xor(a[2]) {
		t.Fatal("XorAll wrong")
	}
	if XorAll(nil) != (Block{}) {
		t.Fatal("XorAll(nil) should be zero")
	}
}

func TestToBytesRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make([]Block, int(n)%64)
		for i := range s {
			s[i] = New(rng.Uint64(), rng.Uint64())
		}
		enc := ToBytes(s)
		dec := SliceFromBytes(enc)
		return slices.Equal(s, dec) && bytes.Equal(enc, ToBytes(dec))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a length that is not a multiple of 16")
		}
	}()
	SliceFromBytes(make([]byte, Size+1))
}
