package ferret

import (
	"fmt"
	"math/bits"

	"ironman/internal/lpn"
	"ironman/internal/spcot"
)

// Params is one PCG-style OTE parameter set (Table 4 of the paper).
type Params struct {
	Name   string
	NumOTs int     // nominal usable COTs per protocol execution
	N      int     // LPN code length / outputs per execution
	L      int     // GGM tree output length ℓ
	K      int     // LPN input length / pre-generated COTs consumed
	T      int     // number of GGM trees per execution
	D      int     // LPN row weight (10 in all paper sets)
	BitSec float64 // LPN bit security reported by the paper
}

// Table4 reproduces the paper's parameter table. The LPN hardness
// figures come from the paper (they cite Liu et al., EUROCRYPT'24).
var Table4 = []Params{
	{Name: "2^20", NumOTs: 1 << 20, N: 1221516, L: 4096, K: 168000, T: 480, D: lpn.DefaultD, BitSec: 139.8},
	{Name: "2^21", NumOTs: 1 << 21, N: 2365652, L: 4096, K: 262000, T: 600, D: lpn.DefaultD, BitSec: 141.8},
	{Name: "2^22", NumOTs: 1 << 22, N: 4531924, L: 8192, K: 328000, T: 740, D: lpn.DefaultD, BitSec: 132.3},
	{Name: "2^23", NumOTs: 1 << 23, N: 8866608, L: 8192, K: 452000, T: 1024, D: lpn.DefaultD, BitSec: 130.2},
	{Name: "2^24", NumOTs: 1 << 24, N: 17262496, L: 8192, K: 480000, T: 2100, D: lpn.DefaultD, BitSec: 135.4},
}

// ParamsByName finds a Table 4 row.
func ParamsByName(name string) (Params, error) {
	for _, p := range Table4 {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("ferret: unknown parameter set %q", name)
}

// Reserve is the number of COT correlations one Extend consumes and
// must therefore carry over between iterations: K for the LPN input
// plus log2(ℓ) per GGM tree for SPCOT puncturing.
func (p Params) Reserve() int { return p.K + p.T*spcot.COTBudget(p.L) }

// Usable is the COT yield of one Extend after self-sustaining the next
// iteration. For the 2^24 row this is ~0.13% below the nominal NumOTs
// (the paper's accounting is slightly more generous); the table4
// headline `ironman-bench` prints is that ratio.
func (p Params) Usable() int { return p.N - p.Reserve() }

// SPCOTOutputs is the total GGM leaf count of one execution, t·ℓ.
func (p Params) SPCOTOutputs() int { return p.T * p.L }

// Validate performs structural sanity checks, so a bad set fails at
// construction rather than panicking in an Extend worker goroutine.
func (p Params) Validate() error {
	if p.N < 1 || p.L < 2 || p.K < 1 || p.T < 1 || p.D < 1 {
		return fmt.Errorf("ferret: bad params %+v", p)
	}
	if bits.OnesCount(uint(p.L)) != 1 {
		return fmt.Errorf("ferret: params %s tree size ℓ=%d is not a power of two", p.Name, p.L)
	}
	if p.Usable() <= 0 {
		return fmt.Errorf("ferret: params %s cannot self-sustain (usable %d)", p.Name, p.Usable())
	}
	if p.K < p.D {
		return fmt.Errorf("ferret: k=%d below row weight d=%d", p.K, p.D)
	}
	return nil
}

// TestParams returns a small self-consistent parameter set for tests:
// n outputs from t trees of ℓ leaves over a k-dimensional code.
func TestParams(n, l, k, t int) Params {
	return Params{
		Name: fmt.Sprintf("test-n%d", n), NumOTs: 0,
		N: n, L: l, K: k, T: t, D: 4,
	}
}
