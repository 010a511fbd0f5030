package spcot

import (
	"math/rand"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ggm"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// seedFor is a per-test GGM root.
func seedFor(leaves, alpha int) block.Block {
	return block.New(uint64(leaves)<<32|uint64(alpha), 0x5eed)
}

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
		w, err := SendWithSeed(a, sp, h, p, leaves, seedFor(leaves, alpha))
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
		go func() { _, _ = SendWithSeed(a, sp, h, p, leaves, seedFor(leaves, 3)) }()
		if _, err := Receive(b, rp, h, p, leaves, 3); err != nil {
			t.Fatal(err)
		}
		if used := 64 - sp.Remaining(); used != 8 {
			t.Fatalf("%v: consumed %d COTs, want log2(256)=8", p, used)
		}
		if used := 64 - rp.Remaining(); used != 8 {
			t.Fatalf("%v: receiver consumed %d", p, used)
		}
	}
}

// TestMAryCommunicationGrows reproduces the trend of Figure 7(b):
// larger arity lowers op count but raises online communication. It
// measures one 4096-leaf exchange at every Fig. 7 arity (and AES×2)
// and pins each to ExchangeBytes, which Fig. 7 reports instead of
// running the protocol.
func TestMAryCommunicationGrows(t *testing.T) {
	const leaves = 4096
	bytesFor := func(kind prg.Kind, m int) int64 {
		p := prg.New(kind, m)
		sp, rp, err := cot.RandomPools(COTBudget(leaves))
		if err != nil {
			t.Fatal(err)
		}
		h := aesprg.NewHash()
		a, b := transport.Pipe()
		done := make(chan error, 1)
		go func() {
			_, err := SendWithSeed(a, sp, h, p, leaves, seedFor(leaves, 1))
			done <- err
		}()
		if _, err := Receive(b, rp, h, p, leaves, 1); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		got := a.Stats().TotalBytes()
		if want := ExchangeBytes(p, leaves, 1); got != want {
			t.Fatalf("%v×%d: measured %d bytes, ExchangeBytes says %d", kind, m, got, want)
		}
		return got
	}
	bytesFor(prg.AES, 2)
	prev := int64(0)
	for _, m := range []int{2, 4, 8, 16, 32} {
		got := bytesFor(prg.ChaCha8, m)
		if got <= prev {
			t.Fatalf("communication should grow with arity: m=%d:%d <= %d", m, got, prev)
		}
		prev = got
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
	if _, err := SendWithSeed(a, sp, h, p, 16, seedFor(16, 0)); err == nil {
		t.Fatal("expected failure on exhausted pool")
	}
}

// TestRejectsBadLeafCount: a leaf count that is not a power of two
// >= 2 has no GGM shape; both endpoints refuse it before any traffic.
func TestRejectsBadLeafCount(t *testing.T) {
	p := prg.New(prg.ChaCha8, 4)
	sp, rp, _ := cot.RandomPools(8)
	h := aesprg.NewHash()
	a, _ := transport.Pipe()
	for _, leaves := range []int{0, 1, 3, 12} {
		if _, err := SendWithSeed(a, sp, h, p, leaves, seedFor(leaves, 0)); err == nil {
			t.Errorf("sender accepted %d leaves", leaves)
		}
		if _, err := Receive(a, rp, h, p, leaves, 0); err == nil {
			t.Errorf("receiver accepted %d leaves", leaves)
		}
	}
	if sp.Remaining() != 8 || rp.Remaining() != 8 || a.Stats().MsgsSent != 0 {
		t.Fatal("a rejected shape consumed COTs or moved bytes")
	}
}

// allButOne runs one all-but-one gadget transfer of msgs as a whole
// exchange and returns what the receiver, punctured at alpha, opened.
func allButOne(t *testing.T, msgs []block.Block, alpha int, seed block.Block) ([]block.Block, *cot.SenderPool) {
	t.Helper()
	m := len(msgs)
	lg := COTBudget(m)
	arities := ggm.LevelArities(m, 2)
	sh := shape{arities: []int{m}}
	sp, rp, err := cot.RandomPools(16)
	if err != nil {
		t.Fatal(err)
	}
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	secBlocks := 2*lg + m
	errCh := make(chan error, 1)
	go func() {
		x, err := sp.Open(a, lg)
		if err != nil {
			errCh <- err
			return
		}
		s := &Sender{x: x, h: h}
		sec := make([]block.Block, secBlocks)
		if rest, k := s.allButOne(sec, 0, msgs, arities, seed, sh.Scratch()); len(rest) != 0 || k != lg {
			t.Errorf("m=%d: sender left %d blocks, used %d instances", m, len(rest), k)
		}
		errCh <- transport.SendBlocks(a, sec)
	}()
	choices := make([]uint64, 1)
	for j := 0; j < lg; j++ {
		if alpha>>(lg-1-j)&1 == 0 {
			choices[0] |= 1 << j
		}
	}
	x, err := rp.Open(b, choices, lg)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := transport.RecvBlocks(b, secBlocks)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]block.Block, m)
	r := &Receiver{x: x, h: h}
	if rest, k := r.allButOne(sec, 0, alpha, got, arities, sh.Scratch()); len(rest) != 0 || k != lg {
		t.Errorf("m=%d: receiver left %d blocks, used %d instances", m, len(rest), k)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return got, sp
}

// TestAllButOne: the (m-1)-out-of-m gadget hands over every message
// except the punctured one for every m and alpha, burning log2(m) COTs.
func TestAllButOne(t *testing.T) {
	for _, m := range []int{2, 4, 8, 16} {
		for alpha := 0; alpha < m; alpha++ {
			msgs := make([]block.Block, m)
			for j := range msgs {
				msgs[j] = block.New(uint64(j)+100, uint64(m))
			}
			got, sp := allButOne(t, msgs, alpha, block.New(uint64(alpha), 7))
			for j := 0; j < m; j++ {
				if j == alpha {
					if got[j] != (block.Block{}) {
						t.Fatalf("m=%d alpha=%d: punctured slot touched", m, alpha)
					}
					continue
				}
				if got[j] != msgs[j] {
					t.Fatalf("m=%d alpha=%d: message %d mismatch", m, alpha, j)
				}
			}
			if used := 16 - sp.Remaining(); used != COTBudget(m) {
				t.Fatalf("m=%d: consumed %d COTs, want %d", m, used, COTBudget(m))
			}
		}
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
		go func() { _, _ = SendWithSeed(x, sp, h, p, leaves, seedFor(leaves, i)) }()
		if _, err := Receive(y, rp, h, p, leaves, i%leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPCOT4096Binary(b *testing.B) { benchSPCOT(b, prg.New(prg.AES, 2), 4096) }
func BenchmarkSPCOT4096FourAry(b *testing.B) {
	benchSPCOT(b, prg.New(prg.ChaCha8, 4), 4096)
}
