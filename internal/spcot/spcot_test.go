package spcot

import (
	"math/rand"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// run executes one SPCOT and returns (delta, w, v).
func run(t *testing.T, p prg.PRG, leaves, alpha, budget int) (block.Block, []block.Block, []block.Block) {
	t.Helper()
	sp, rp, err := cot.RandomPools(budget)
	if err != nil {
		t.Fatal(err)
	}
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	type sres struct {
		w   []block.Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		w, err := Send(a, sp, h, p, leaves)
		ch <- sres{w, err}
	}()
	v, err := Receive(b, rp, h, p, leaves, alpha)
	if err != nil {
		t.Fatal(err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatal(s.err)
	}
	return sp.Delta, s.w, v
}

// checkRelation verifies w = v ⊕ u·Δ with u one-hot at alpha.
func checkRelation(t *testing.T, delta block.Block, w, v []block.Block, alpha int) {
	t.Helper()
	for i := range w {
		want := v[i]
		if i == alpha {
			want = want.Xor(delta)
		}
		if w[i] != want {
			t.Fatalf("relation broken at %d (alpha=%d)", i, alpha)
		}
	}
}

func TestSPCOTAllConfigs(t *testing.T) {
	configs := []struct {
		p      prg.PRG
		leaves int
	}{
		{prg.New(prg.AES, 2), 16},     // classic binary Ferret
		{prg.New(prg.ChaCha8, 4), 16}, // Ironman 4-ary
		{prg.New(prg.ChaCha8, 4), 32}, // mixed radix 4,4,2
		{prg.New(prg.AES, 4), 64},
		{prg.New(prg.ChaCha8, 8), 64},
	}
	for _, cfg := range configs {
		for _, alpha := range []int{0, 1, cfg.leaves / 2, cfg.leaves - 1} {
			delta, w, v := run(t, cfg.p, cfg.leaves, alpha, COTBudget(cfg.leaves))
			checkRelation(t, delta, w, v, alpha)
		}
	}
}

func TestSPCOTRandomAlpha(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		leaves := 1 << uint(2+rng.Intn(7)) // 4..512
		alpha := rng.Intn(leaves)
		delta, w, v := run(t, p, leaves, alpha, COTBudget(leaves))
		checkRelation(t, delta, w, v, alpha)
	}
}

// TestCOTBudgetIndependentOfArity verifies §4.2's claim: puncturing
// consumes log2(leaves) COTs whether the tree is 2-ary or 4-ary.
func TestCOTBudgetIndependentOfArity(t *testing.T) {
	const leaves = 256
	for _, p := range []prg.PRG{prg.New(prg.AES, 2), prg.New(prg.ChaCha8, 4)} {
		sp, rp, err := cot.RandomPools(64)
		if err != nil {
			t.Fatal(err)
		}
		h := aesprg.NewHash()
		a, b := transport.Pipe()
		go func() { _, _ = Send(a, sp, h, p, leaves) }()
		if _, err := Receive(b, rp, h, p, leaves, 3); err != nil {
			t.Fatal(err)
		}
		if sp.Used() != 8 {
			t.Fatalf("%v: consumed %d COTs, want log2(256)=8", p, sp.Used())
		}
		if rp.Used() != 8 {
			t.Fatalf("%v: receiver consumed %d", p, rp.Used())
		}
	}
}

// TestMAryCommunicationGrows reproduces the trend of Figure 7(b):
// larger arity lowers op count but raises online communication.
func TestMAryCommunicationGrows(t *testing.T) {
	const leaves = 4096
	bytesFor := func(p prg.PRG) int64 {
		sp, rp, err := cot.RandomPools(64)
		if err != nil {
			t.Fatal(err)
		}
		h := aesprg.NewHash()
		a, b := transport.Pipe()
		done := make(chan struct{})
		go func() {
			_, _ = Send(a, sp, h, p, leaves)
			close(done)
		}()
		if _, err := Receive(b, rp, h, p, leaves, 1); err != nil {
			t.Fatal(err)
		}
		<-done
		return a.Stats().TotalBytes()
	}
	b2 := bytesFor(prg.New(prg.ChaCha8, 2))
	b4 := bytesFor(prg.New(prg.ChaCha8, 4))
	b16 := bytesFor(prg.New(prg.ChaCha8, 16))
	if !(b2 < b4 && b4 < b16) {
		t.Fatalf("communication should grow with arity: m=2:%d m=4:%d m=16:%d", b2, b4, b16)
	}
}

func TestReceiveRejectsBadAlpha(t *testing.T) {
	p := prg.New(prg.AES, 2)
	_, rp, _ := cot.RandomPools(8)
	h := aesprg.NewHash()
	a, _ := transport.Pipe()
	if _, err := Receive(a, rp, h, p, 16, 16); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := Receive(a, rp, h, p, 16, -1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestExhaustedPoolFails(t *testing.T) {
	p := prg.New(prg.AES, 2)
	sp, rp, _ := cot.RandomPools(2) // needs 4
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	go func() {
		_, _ = Receive(b, rp, h, p, 16, 0)
		b.Close()
		a.Close()
	}()
	if _, err := Send(a, sp, h, p, 16); err == nil {
		t.Fatal("expected failure on exhausted pool")
	}
}

func TestCOTBudgetValues(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 4096: 12, 8192: 13}
	for leaves, want := range cases {
		if got := COTBudget(leaves); got != want {
			t.Errorf("COTBudget(%d) = %d, want %d", leaves, got, want)
		}
	}
}

func benchSPCOT(b *testing.B, p prg.PRG, leaves int) {
	h := aesprg.NewHash()
	for i := 0; i < b.N; i++ {
		sp, rp, _ := cot.RandomPools(COTBudget(leaves))
		x, y := transport.Pipe()
		go func() { _, _ = Send(x, sp, h, p, leaves) }()
		if _, err := Receive(y, rp, h, p, leaves, i%leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPCOT4096Binary(b *testing.B) { benchSPCOT(b, prg.New(prg.AES, 2), 4096) }
func BenchmarkSPCOT4096FourAry(b *testing.B) {
	benchSPCOT(b, prg.New(prg.ChaCha8, 4), 4096)
}
