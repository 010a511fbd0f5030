package arith

import (
	"testing"

	"ironman/internal/obs"
)

// TestObserveOpenAndTriples: the registry totals must track the
// party's Triples counter and every openWords exchange must leave a
// counter bump and a span. The embedded Bool party is wired by the
// same Observe call.
func TestObserveOpenAndTriples(t *testing.T) {
	a, b := parties(t, 64*8)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	labels := obs.Labels("party", "a")
	a.Observe(reg, tr, labels)

	// x (4×1) times a scalar 2 that party a holds.
	eval := func(p *Party, mine bool) error {
		tr, err := p.NewMatTriple(4, 1, 1)
		if err != nil {
			return err
		}
		x := p.NewPrivate([]uint64{3, 5, 7, 9}, mine)
		y := p.NewPrivate([]uint64{2}, mine)
		z, err := p.MatMul(x, y, tr)
		if err != nil {
			return err
		}
		_, err = p.Reveal(z)
		return err
	}
	run2(t, func() error { return eval(a, true) }, func() error { return eval(b, false) })

	if got := reg.Counter(obs.Name("ironman_arith_triples_total", labels)).Value(); got != uint64(a.Triples) {
		t.Fatalf("triples counter %d != party total %d", got, a.Triples)
	}
	opens := reg.Counter(obs.Name("ironman_arith_opens_total", labels)).Value()
	words := reg.Counter(obs.Name("ironman_arith_open_words_total", labels)).Value()
	// MatMul opens [D|E] (4+1 words), Reveal opens z (4 words).
	if opens != 2 || words != 9 {
		t.Fatalf("open accounting: %d opens / %d words, want 2 / 9", opens, words)
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.Name == "arith.open" {
			spans++
		}
	}
	if spans != 2 {
		t.Fatalf("got %d arith.open spans, want 2", spans)
	}
}
