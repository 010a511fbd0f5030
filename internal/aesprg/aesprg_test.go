package aesprg

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"ironman/internal/block"
)

func TestHashTweakSeparation(t *testing.T) {
	h := NewHash()
	x := block.New(1, 2)
	if h.Sum(x, 0) == h.Sum(x, 1) {
		t.Fatal("different tweaks must give different digests")
	}
	if h.Sum(x, 5) != h.Sum(x, 5) {
		t.Fatal("hash must be deterministic")
	}
	y := block.New(1, 3)
	if h.Sum(x, 0) == h.Sum(y, 0) {
		t.Fatal("different inputs must give different digests")
	}
}

func TestHashNoFixedPoint(t *testing.T) {
	// H(x) != x for random x with overwhelming probability; a systematic
	// fixed point would indicate the feed-forward is missing.
	h := NewHash()
	f := func(lo, hi uint64, tweak uint64) bool {
		x := block.New(lo, hi)
		return h.Sum(x, tweak) != x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterminism(t *testing.T) {
	seed := block.New(7, 9)
	a := NewStream(seed)
	b := NewStream(seed)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("streams from equal seeds must agree")
		}
	}
	c := NewStream(block.New(7, 10))
	if a.Uint64() == c.Uint64() && a.Uint64() == c.Uint64() {
		t.Fatal("streams from different seeds should diverge")
	}
}

func TestStreamFillChunking(t *testing.T) {
	// Reading byte-by-byte must equal one bulk read.
	seed := block.New(3, 1)
	bulk := make([]byte, 100)
	NewStream(seed).Fill(bulk)
	s := NewStream(seed)
	for i := range bulk {
		var one [1]byte
		s.Fill(one[:])
		if one[0] != bulk[i] {
			t.Fatalf("byte %d differs between chunked and bulk reads", i)
		}
	}
}

// TestStreamGolden pins the keystream itself: the first 64 bytes for a
// fixed seed, recorded before Fill was rewritten to encrypt in place.
// LPN codes, dealt reserves and every seeded transcript hang off it.
func TestStreamGolden(t *testing.T) {
	const want = "af429e98cc04e8c4cd1d4be515c7dd4df031fdbaba1440b86db7b6510899317a" +
		"06d54d933dbe2b2b631516ea9dc9c7de268fa5c8393081df7aaf44812ac352d8"
	seed := block.New(0x0123456789abcdef, 0xfedcba9876543210)
	got := make([]byte, 64)
	NewStream(seed).Fill(got)
	if hex.EncodeToString(got) != want {
		t.Fatalf("keystream changed:\n got %x\nwant %s", got, want)
	}
	// The same bytes through every draw width, at offsets that straddle
	// block boundaries and mix the buffered and in-place paths.
	s := NewStream(seed)
	var mixed []byte
	mixed = binary.LittleEndian.AppendUint32(mixed, s.Uint32())
	chunk := make([]byte, 21)
	s.Fill(chunk)
	mixed = append(mixed, chunk...)
	mixed = binary.LittleEndian.AppendUint64(mixed, s.Uint64())
	mixed = append(mixed, s.Block().Bytes()...)
	chunk = chunk[:15]
	s.Fill(chunk)
	mixed = append(mixed, chunk...)
	if !bytes.Equal(mixed, got) {
		t.Fatalf("mixed-width draws diverge from the bulk keystream:\n got %x\nwant %x", mixed, got)
	}
}

func TestStreamDrawsDoNotAllocate(t *testing.T) {
	s := NewStream(block.New(5, 6))
	buf := make([]byte, 4096)
	var sink uint64
	for name, draw := range map[string]func(){
		"Fill(4KiB)": func() { s.Fill(buf) },
		"Uint32":     func() { sink += uint64(s.Uint32()) },
		"Uint32n":    func() { sink += uint64(s.Uint32n(1000003)) },
		"Block":      func() { sink += s.Block().Lo },
	} {
		if allocs := testing.AllocsPerRun(100, draw); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
	_ = sink
}

func TestUint32nUniformBounds(t *testing.T) {
	s := NewStream(block.New(11, 12))
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Uint32n(10)
		counts[v]++
	}
	for v, c := range counts {
		// Expected 10000 per bucket; allow 10% slack.
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d has %d draws, outside [9000,11000]", v, c)
		}
	}
}

func TestUint32nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint32n(0) must panic")
		}
	}()
	NewStream(block.Block{}).Uint32n(0)
}

func TestStreamBits(t *testing.T) {
	s := NewStream(block.New(1, 1))
	bits := make([]bool, 1000)
	s.Bits(bits)
	ones := 0
	for _, b := range bits {
		if b {
			ones++
		}
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("ones = %d out of 1000, badly unbalanced", ones)
	}
}

func BenchmarkHash(b *testing.B) {
	h := NewHash()
	x := block.New(1, 2)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		x = h.Sum(x, uint64(i))
	}
}

func BenchmarkStreamFill(b *testing.B) {
	s := NewStream(block.New(1, 2))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		s.Fill(buf)
	}
	b.ReportMetric(float64(b.N)*4096/1e9/b.Elapsed().Seconds(), "GB/s")
}
