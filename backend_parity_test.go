package ironman

import (
	"bytes"
	"crypto/aes"
	"math"
	"reflect"
	"testing"

	"ironman/internal/arith"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/gmw"
)

// The backend-parity suite runs identical seeded workloads through
// NewDealtPair on every registered extension backend and requires
// plaintext-identical results: the GMW comparison engine, the
// arithmetic fixed-point pipeline, and the AES-128 circuit
// must not be able to tell the backends apart.

func parityParams() Params { return ferret.TestParams(60_000, 1024, 6000, 32) }

func parityOpts(backend string, seed uint64) Options {
	o := Options{Backend: backend}
	o.Seed = Block{Lo: 0x706172697479, Hi: seed} // "parity"
	// Prefetch > 0 gives the dealt pair its shared lockstep generator,
	// so the workloads below may draw the two halves in any order.
	o.Prefetch = 2
	return o
}

// parityPools deals one seeded pair on the named backend and
// materializes both halves into GMW-consumable pools.
func parityPools(t *testing.T, backend string, seed uint64, budget int) (*cot.SenderPool, *cot.ReceiverPool) {
	t.Helper()
	connS, connR := Pipe()
	delta := Block{Lo: 0xdead0000 + seed, Hi: 0xbeef}
	s, r, err := NewDealtPair(connS, connR, delta, parityParams(), parityOpts(backend, seed))
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	t.Cleanup(func() { s.Close() })
	sp, err := s.GMWPool(budget)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	rp, err := r.GMWPool(budget)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return sp, rp
}

// TestSeededDrawsDeterministicPerBackend: with Options.Seed set, a
// dealt pair's drawn correlations are a pure function of
// (delta, params, options) on every backend.
func TestSeededDrawsDeterministicPerBackend(t *testing.T) {
	for _, backend := range extension.Names() {
		draw := func() ([]Block, []bool, []Block) {
			connS, connR := Pipe()
			delta := Block{Lo: 0xd17a, Hi: 0x5eed}
			s, r, err := NewDealtPair(connS, connR, delta, parityParams(), parityOpts(backend, 42))
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			defer s.Close()
			z, err := s.COTs(256)
			if err != nil {
				t.Fatal(err)
			}
			bits, y, err := r.COTs(256)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCOTs(delta, z, bits, y); err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			return z, bits, y
		}
		z1, b1, y1 := draw()
		z2, b2, y2 := draw()
		if !reflect.DeepEqual(z1, z2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(y1, y2) {
			t.Fatalf("%s: seeded draws differ between identical runs", backend)
		}
	}
}

// gmwCompareWorkload runs the batched 16-bit comparison of the public
// GMW surface on the given backend and returns both parties' opened
// results.
func gmwCompareWorkload(t *testing.T, backend string) []bool {
	t.Helper()
	const elems, width = 32, 16
	budget := (3*width - 2) * elems
	sAB, rAB := parityPools(t, backend, 1, budget)
	sBA, rBA := parityPools(t, backend, 2, budget)

	xs := make([]uint64, elems)
	ys := make([]uint64, elems)
	for i := range xs {
		xs[i] = uint64(i * 977 % (1 << width))
		ys[i] = uint64((elems - i) * 1013 % (1 << width))
	}
	connA, connB := Pipe()
	var openA []bool
	done := make(chan error, 1)
	go func() {
		pa, err := gmw.NewParty(connA, sAB, rBA, true)
		if err != nil {
			done <- err
			return
		}
		gt, err := pa.GreaterThanVec(pa.NewPrivateVec(xs, width, true), pa.NewPrivateVec(make([]uint64, elems), width, false))
		if err != nil {
			done <- err
			return
		}
		openA, err = pa.RevealPacked(gt)
		done <- err
	}()
	pb, err := gmw.NewParty(connB, sBA, rAB, false)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := pb.GreaterThanVec(pb.NewPrivateVec(make([]uint64, elems), width, false), pb.NewPrivateVec(ys, width, true))
	if err != nil {
		t.Fatal(err)
	}
	openB, err := pb.RevealPacked(gt)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want := xs[i] > ys[i]
		if openA[i] != want || openB[i] != want {
			t.Fatalf("%s: elem %d: gt(%d,%d) = %v/%v", backend, i, xs[i], ys[i], openA[i], openB[i])
		}
	}
	return openA
}

// arithWorkload runs the fixed-point matvec pipeline on the given
// backend and returns the revealed pre-truncation words. (Truncation
// is deliberately left out: TruncVec's ±1 LSB error depends on the
// share randomness, which legitimately differs between backends — the
// Beaver product itself is exact and must be plaintext-identical.)
func arithWorkload(t *testing.T, backend string) []uint64 {
	t.Helper()
	const m, k = 6, 10
	f := arith.Fixed{Frac: 12}
	budget := 64*m*k + 900*m
	sAB, rAB := parityPools(t, backend, 3, budget)
	sBA, rBA := parityPools(t, backend, 4, budget)

	w := make([]float64, m*k)
	x := make([]float64, k)
	for i := range w {
		w[i] = math.Sin(float64(i + 1))
	}
	for i := range x {
		x[i] = math.Cos(float64(3 * i))
	}
	eval := func(conn Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) ([]uint64, error) {
		p, err := arith.NewParty(conn, out, in, first)
		if err != nil {
			return nil, err
		}
		tr, err := p.NewMatTriple(m, k, 1)
		if err != nil {
			return nil, err
		}
		ws := p.NewPrivate(f.EncodeVec(w), first)
		xs := p.NewPrivate(f.EncodeVec(x), !first)
		z, err := p.MatVec(ws, xs, tr)
		if err != nil {
			return nil, err
		}
		return p.Reveal(z)
	}
	connA, connB := Pipe()
	type res struct {
		vals []uint64
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		vals, err := eval(connA, sAB, rBA, true)
		ch <- res{vals, err}
	}()
	gotB, errB := eval(connB, sBA, rAB, false)
	if errB != nil {
		t.Fatal(errB)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	// The Beaver product is exact modular arithmetic on the encoded
	// words: check against the plaintext computation, word for word.
	ew, ex := f.EncodeVec(w), f.EncodeVec(x)
	for i := 0; i < m; i++ {
		var want uint64
		for l := 0; l < k; l++ {
			want += ew[i*k+l] * ex[l]
		}
		if ra.vals[i] != want || gotB[i] != want {
			t.Fatalf("%s: matvec wrong at %d: %d/%d want %d", backend, i, ra.vals[i], gotB[i], want)
		}
	}
	return ra.vals
}

// circuitWorkload evaluates the AES-128 circuit (two SIMD instances,
// plaintexts from party A and keys from party B) on the given backend
// and returns the opened ciphertext bits.
func circuitWorkload(t *testing.T, backend string) [][]bool {
	t.Helper()
	prog, err := circuit.Compile(circuit.AES128())
	if err != nil {
		t.Fatal(err)
	}
	var pts, keys [2][16]byte
	for i := range pts[0] {
		pts[0][i], keys[0][i] = byte(0x11*i), byte(i) // FIPS-197 appendix C
		pts[1][i], keys[1][i] = byte(7*i), byte(0xf0-i)
	}
	budget := prog.ANDs * len(pts)
	sAB, rAB := parityPools(t, backend, 5, budget)
	sBA, rBA := parityPools(t, backend, 6, budget)

	// planes XOR-shares the plaintexts (party A's input) and the keys
	// (party B's); the other party holds zero shares.
	planes := func(partyA bool) []gmw.PackedShare {
		ptBits := make([][]bool, len(pts))
		keyBits := make([][]bool, len(keys))
		for i := range pts {
			if partyA {
				ptBits[i] = circuit.BytesBits(pts[i][:])
			} else {
				keyBits[i] = circuit.BytesBits(keys[i][:])
			}
		}
		pp, err := circuit.SharePlanes(ptBits, 128, partyA)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := circuit.SharePlanes(keyBits, 128, !partyA)
		if err != nil {
			t.Fatal(err)
		}
		return append(pp, kp...)
	}

	connA, connB := Pipe()
	type res struct {
		outs [][]bool
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		pa, err := gmw.NewParty(connA, sAB, rBA, true)
		if err != nil {
			ch <- res{nil, err}
			return
		}
		out, err := prog.Eval(pa, planes(true), nil)
		if err != nil {
			ch <- res{nil, err}
			return
		}
		outs, err := circuit.Reveal(pa, out)
		ch <- res{outs, err}
	}()
	pb, err := gmw.NewParty(connB, sBA, rAB, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Eval(pb, planes(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	outsB, err := circuit.Reveal(pb, out)
	if err != nil {
		t.Fatal(err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	for i := range pts {
		blk, err := aes.NewCipher(keys[i][:])
		if err != nil {
			t.Fatal(err)
		}
		var want [16]byte
		blk.Encrypt(want[:], pts[i][:])
		if got := circuit.BitsBytes(ra.outs[i]); !bytes.Equal(got, want[:]) {
			t.Fatalf("%s: instance %d: ciphertext %x, want %x", backend, i, got, want)
		}
		if !reflect.DeepEqual(ra.outs[i], outsB[i]) {
			t.Fatalf("%s: instance %d: the two parties opened different outputs", backend, i)
		}
	}
	return ra.outs
}

// TestBackendParity is the cross-backend acceptance suite: every
// registered backend feeds the same three seeded workloads and the
// opened plaintext results must be identical across backends.
func TestBackendParity(t *testing.T) {
	backends := extension.Names()
	if len(backends) < 2 {
		t.Fatalf("parity needs at least two registered backends, have %v", backends)
	}
	var gmwRef []bool
	var arithRef []uint64
	var circRef [][]bool
	for i, backend := range backends {
		gmwRes := gmwCompareWorkload(t, backend)
		arithRes := arithWorkload(t, backend)
		circRes := circuitWorkload(t, backend)
		if i == 0 {
			gmwRef, arithRef, circRef = gmwRes, arithRes, circRes
			continue
		}
		if !reflect.DeepEqual(gmwRes, gmwRef) {
			t.Errorf("gmw results differ: %s vs %s", backend, backends[0])
		}
		if !reflect.DeepEqual(arithRes, arithRef) {
			t.Errorf("arith results differ: %s vs %s", backend, backends[0])
		}
		if !reflect.DeepEqual(circRes, circRef) {
			t.Errorf("circuit results differ: %s vs %s", backend, backends[0])
		}
	}
}
