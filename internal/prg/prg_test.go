package prg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ironman/internal/block"
)

func allPRGs() []PRG {
	return []PRG{
		New(AES, 2), New(AES, 3), New(AES, 4),
		New(ChaCha8, 2), New(ChaCha8, 4), New(ChaCha8, 8),
		New(ChaCha8, 16), New(ChaCha8, 32),
	}
}

func TestExpandDeterministicAllKinds(t *testing.T) {
	for _, p := range allPRGs() {
		a := make([]block.Block, p.Arity())
		b := make([]block.Block, p.Arity())
		parent := block.New(0x1234, 0x5678)
		p.Expand(parent, a)
		p.Expand(parent, b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: not deterministic", name(p))
		}
		seen := map[block.Block]bool{parent: true}
		for _, c := range a {
			if seen[c] {
				t.Fatalf("%s: a child repeats a sibling or the parent", name(p))
			}
			seen[c] = true
		}
	}
}

func TestChaChaPrefixConsistency(t *testing.T) {
	// The first 4 children of a wide ChaCha expansion come from core
	// call 0, exactly like the 4-ary expansion of the same seed. This is
	// the hardware property that lets one ChaCha unit serve all arities.
	parent := block.New(99, 100)
	c4 := make([]block.Block, 4)
	New(ChaCha8, 4).Expand(parent, c4)
	c32 := make([]block.Block, 32)
	New(ChaCha8, 32).Expand(parent, c32)
	if !slices.Equal(c4, c32[:4]) {
		t.Fatal("4-ary expansion should be a prefix of the 32-ary expansion")
	}
	c2 := make([]block.Block, 2)
	New(ChaCha8, 2).Expand(parent, c2)
	if !slices.Equal(c2, c32[:2]) {
		t.Fatal("2-ary expansion should be a prefix of the 32-ary expansion")
	}
}

func TestSeedSensitivity(t *testing.T) {
	for _, p := range allPRGs() {
		p := p
		f := func(a, b, c, d uint64) bool {
			p1, p2 := block.New(a, b), block.New(c, d)
			x := make([]block.Block, p.Arity())
			y := make([]block.Block, p.Arity())
			p.Expand(p1, x)
			p.Expand(p2, y)
			if p1 == p2 {
				return slices.Equal(x, y)
			}
			for i := range x {
				if x[i] == y[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", name(p), err)
		}
	}
}

// TestOpsPerExpand pins the primitive cost of one full expansion, the
// per-node quantity Figure 6 draws.
func TestOpsPerExpand(t *testing.T) {
	cases := []struct {
		kind  Kind
		arity int
		want  int
	}{
		{AES, 2, 2}, {AES, 3, 3}, {AES, 4, 4},
		{ChaCha8, 2, 1}, {ChaCha8, 4, 1},
		{ChaCha8, 8, 2}, {ChaCha8, 16, 4}, {ChaCha8, 32, 8},
	}
	for _, c := range cases {
		p := New(c.kind, c.arity)
		if got := p.OpsFor(p.Arity()); got != c.want {
			t.Errorf("%s: OpsFor(Arity()) = %d, want %d", name(p), got, c.want)
		}
	}
}

func TestPartialExpandIsPrefix(t *testing.T) {
	// Producing n < Arity children must yield a prefix of the full
	// expansion — required by mixed-radix GGM levels.
	for _, p := range allPRGs() {
		full := make([]block.Block, p.Arity())
		parent := block.New(5, 6)
		p.Expand(parent, full)
		for n := 1; n < p.Arity(); n++ {
			part := make([]block.Block, n)
			p.Expand(parent, part)
			if !slices.Equal(part, full[:n]) {
				t.Fatalf("%s: partial expand of %d children is not a prefix", name(p), n)
			}
		}
	}
}

func TestOpsFor(t *testing.T) {
	p4 := New(ChaCha8, 4)
	if p4.OpsFor(2) != 1 || p4.OpsFor(4) != 1 {
		t.Fatal("ChaCha8 ops for <=4 children must be 1 core call")
	}
	p32 := New(ChaCha8, 32)
	if p32.OpsFor(5) != 2 || p32.OpsFor(32) != 8 {
		t.Fatal("ChaCha8x32 OpsFor wrong")
	}
	a4 := New(AES, 4)
	if a4.OpsFor(2) != 2 || a4.OpsFor(4) != 4 {
		t.Fatal("AES OpsFor must be one call per child")
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(ChaCha8, 3) },
		func() { New(ChaCha8, 64) },
		func() { New(Kind(99), 2) },
		func() { New(AES, 0) },
		func() { New(AES, 1) },
		func() { New(AES, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestExpandGolden pins the expansion bytes of every (kind, arity)
// point: one SHA-256 over 64 chained full expansions, each parent the
// last child of the previous expansion. The hashes were recorded while
// the ChaCha8 core still lived in its own stream-cipher package and the
// AES arm still built its ciphers per instance.
func TestExpandGolden(t *testing.T) {
	golden := map[string]string{
		"AESx2":      "f6b0cbe1c23c3245223b26fa04405feb1b183807698606524457a67d5dc73537",
		"AESx3":      "67fbc2cb887944fc355187a6e29638f821b887cfa5d63b93eb0f2210b0b983c4",
		"AESx4":      "1ae1664b5580ba716522ec351f9032b12a9e4cf7fcbe470d7cff6d530dbd041f",
		"ChaCha8x2":  "90e18d4fed23d80e72d85bafaaf473ac6cdcbb639b3bf8c69e5fa1b72bd07e8a",
		"ChaCha8x4":  "112deb442ff0a2c016d294ab87fa667000b849066132e5f1f35aade6fbc632b9",
		"ChaCha8x8":  "ca4a5e7d762516a4fbed48384684018a4fbaea35f199d705d8c196444de7515a",
		"ChaCha8x16": "e26323cbbc4f2ab9a12a194340b00ffeb0f86bb5d45ec4416fde15c5b711185e",
		"ChaCha8x32": "91bb99a45add71513df7ff4f06bdef6546675ac89d9cb29f909fe5751a13a5f7",
	}
	for _, p := range allPRGs() {
		h := sha256.New()
		parent := block.New(0x0123456789abcdef, 0xfedcba9876543210)
		children := make([]block.Block, p.Arity())
		for i := 0; i < 64; i++ {
			p.Expand(parent, children)
			h.Write(block.ToBytes(children))
			parent = children[len(children)-1]
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := golden[name(p)]; got != want {
			t.Errorf("%s: sha256 of chained expansions = %s, want %s", name(p), got, want)
		}
	}
}

// TestChaChaBlockRFC8439 checks the core against the RFC 8439 §2.3.2
// ChaCha20 block-function vector; Expand runs the same code at 8 rounds.
func TestChaChaBlockRFC8439(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce, _ := hex.DecodeString("000000090000004a00000000")
	in := [16]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574}
	for i := 0; i < 8; i++ {
		in[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	in[12] = 1
	for i := 0; i < 3; i++ {
		in[13+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	var out [64]byte
	chachaBlock(&out, &in, 20)
	const want = "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e" +
		"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
	if got := hex.EncodeToString(out[:]); got != want {
		t.Fatalf("block mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestExpandLevelMatchesExpand holds ExpandLevel to a per-parent Expand
// loop, leaves and sums, on the lane kernel and on the per-parent path:
// every range length 0..40 (so the tail covers every remainder mod 8),
// at lo = 0, where the children overwrite their own parents, and at
// lo > 0.
func TestExpandLevelMatchesExpand(t *testing.T) {
	kernel := expand8
	t.Cleanup(func() { expand8 = kernel })
	paths := []string{"per-parent"}
	if kernel != nil {
		paths = append(paths, "lanes")
	} else {
		t.Log("no lane kernel on this build or CPU: only the per-parent path runs")
	}
	for _, path := range paths {
		expand8 = nil
		if path == "lanes" {
			expand8 = kernel
		}
		for _, p := range allPRGs() {
			for _, a := range []int{2, 4} {
				if a > p.Arity() {
					continue
				}
				for n := 0; n <= 40; n++ {
					for _, lo := range []int{0, 5} {
						hi := lo + n
						nodes := make([]block.Block, hi*a+3)
						for i := range nodes {
							nodes[i] = block.New(uint64(i)*0x9e3779b97f4a7c15, uint64(n)<<32|uint64(i))
						}
						sums := []block.Block{block.New(1, 2), block.New(3, 4), block.New(5, 6), block.New(7, 8)}
						want, wantSums := slices.Clone(nodes), slices.Clone(sums)
						for j := hi - 1; j >= lo; j-- {
							kids := want[j*a : (j+1)*a]
							p.Expand(want[j], kids)
							for c, k := range kids {
								wantSums[c] = wantSums[c].Xor(k)
							}
						}
						p.ExpandLevel(nodes, lo, hi, a, sums)
						if !slices.Equal(nodes, want) || !slices.Equal(sums, wantSums) {
							t.Fatalf("%s %s a=%d lo=%d hi=%d: ExpandLevel differs from per-parent Expand", path, name(p), a, lo, hi)
						}
					}
				}
			}
		}
	}
}

// name identifies a construction in messages and benchmark names, e.g.
// "ChaCha8x4".
func name(p PRG) string { return fmt.Sprintf("%vx%d", p.kind, p.arity) }

func TestKindString(t *testing.T) {
	if AES.String() != "AES" || ChaCha8.String() != "ChaCha8" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String broken")
	}
}

// BenchmarkExpandLevel times 4-ary and binary levels of 1024 parents,
// the shape of a GGM tree's widest levels, for ChaCha8 and AES.
func BenchmarkExpandLevel(b *testing.B) {
	for _, c := range []struct {
		p PRG
		a int
	}{{New(ChaCha8, 4), 2}, {New(ChaCha8, 4), 4}, {New(AES, 2), 2}, {New(AES, 4), 4}} {
		p, a := c.p, c.a
		b.Run(fmt.Sprintf("%va%d", p.kind, a), func(b *testing.B) {
			const parents = 1024
			nodes := make([]block.Block, parents*a)
			sums := make([]block.Block, a)
			b.SetBytes(int64(16 * parents * a))
			for b.Loop() {
				nodes[0] = block.New(1, 2)
				p.ExpandLevel(nodes, 0, parents, a, sums)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*parents), "ns/parent")
		})
	}
}

func BenchmarkExpand(b *testing.B) {
	for _, p := range []PRG{New(AES, 2), New(AES, 4), New(ChaCha8, 2), New(ChaCha8, 4)} {
		p := p
		b.Run(name(p), func(b *testing.B) {
			children := make([]block.Block, p.Arity())
			parent := block.New(1, 2)
			b.SetBytes(int64(16 * p.Arity()))
			for i := 0; i < b.N; i++ {
				p.Expand(parent, children)
			}
		})
	}
}
