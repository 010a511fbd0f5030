package ironman

import (
	"slices"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/extension"
)

// TestLocalRandomnessFresh: an unseeded endpoint keys its stream from
// crypto/rand, so two pairs dealt under the same Δ, params and Workers
// still draw different GGM roots, noise positions and reserves. A
// constant key when Seed is zero (say aesprg.NewStream(domain)) would
// make them equal, as the seeded control shows.
func TestLocalRandomnessFresh(t *testing.T) {
	delta := block.New(0xde17a, 0xf7e54)
	for _, name := range []string{"ferret", "softspoken"} {
		t.Run(name, func(t *testing.T) {
			backend, err := extension.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			firstZ := func(seed Block) []Block {
				t.Helper()
				a, b := Pipe()
				defer a.Close()
				defer b.Close()
				s, r, err := backend.DealPair(a, b, delta, smallParams(), extension.Options{Workers: 2, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				z, _, _, err := extension.ExtendLockstep(s, r)
				if err != nil {
					t.Fatal(err)
				}
				return z
			}
			if slices.Equal(firstZ(Block{}), firstZ(Block{})) {
				t.Fatal("two unseeded pairs produced the same first Extend")
			}
			seed := block.New(0x5eed, 1)
			if !slices.Equal(firstZ(seed), firstZ(seed)) {
				t.Fatal("two pairs under one seed differ: the control is broken")
			}
		})
	}

	t.Run("cot.RandomPools", func(t *testing.T) {
		draw := func() []Block {
			sp, _, err := cot.RandomPools(8)
			if err != nil {
				t.Fatal(err)
			}
			z, err := sp.TakeBlocks(8)
			if err != nil {
				t.Fatal(err)
			}
			return append(z, sp.Delta)
		}
		if slices.Equal(draw(), draw()) {
			t.Fatal("two RandomPools dealt the same Δ and reserve")
		}
	})

	t.Run("RandomDelta", func(t *testing.T) {
		d1, d2 := RandomDelta(), RandomDelta()
		if d1 == d2 || d1 == (Block{}) || d2 == (Block{}) {
			t.Fatal("RandomDelta gave equal or zero values")
		}
	})

	// The seeded derivation every golden transcript hangs off.
	t.Run("seeded key", func(t *testing.T) {
		seed, domain := block.New(0x0123456789abcdef, 0xfedcba9876543210), block.New(0x6c6f63616c, 7)
		got, want := make([]byte, 64), make([]byte, 64)
		aesprg.NewLocal(seed, domain).Fill(got)
		aesprg.NewStream(seed.Xor(domain)).Fill(want)
		if !slices.Equal(got, want) {
			t.Fatal("NewLocal(s, d) is not NewStream(s⊕d)")
		}
	})
}
