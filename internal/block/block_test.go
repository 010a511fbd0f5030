package block

import (
	"bytes"
	"math/rand"
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
		return b.Xor(b).IsZero()
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
	if b.OnesCount() != len(set) {
		t.Fatalf("OnesCount = %d, want %d", b.OnesCount(), len(set))
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

func TestMulBit(t *testing.T) {
	b := New(0xdeadbeef, 0xfeedface)
	if b.MulBit(0) != Zero {
		t.Fatal("MulBit(0) should be zero")
	}
	if b.MulBit(1) != b {
		t.Fatal("MulBit(1) should be identity")
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
	b := []Block{New(7, 8), New(9, 10), New(11, 12)}
	dst := make([]Block, 3)
	XorSlices(dst, a, b)
	for i := range dst {
		if dst[i] != a[i].Xor(b[i]) {
			t.Fatalf("XorSlices[%d] wrong", i)
		}
	}
	XorInto(dst, b)
	if !Equal(dst, a) {
		t.Fatal("XorInto should undo the xor")
	}
	if XorAll(a) != a[0].Xor(a[1]).Xor(a[2]) {
		t.Fatal("XorAll wrong")
	}
	if XorAll(nil) != Zero {
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
		return Equal(s, dec) && bytes.Equal(enc, ToBytes(dec))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	XorSlices(make([]Block, 1), make([]Block, 2), make([]Block, 2))
}

func BenchmarkXorSlices(b *testing.B) {
	n := 4096
	x := make([]Block, n)
	y := make([]Block, n)
	dst := make([]Block, n)
	b.SetBytes(int64(n * Size))
	for i := 0; i < b.N; i++ {
		XorSlices(dst, x, y)
	}
}
