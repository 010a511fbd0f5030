package extension

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/transport"
)

func smallParams(t *testing.T) Params {
	t.Helper()
	p := ferret.TestParams(600, 32, 128, 8)
	return p
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 2 || names[0] != "ferret" || names[1] != "softspoken" {
		t.Fatalf("Names() = %v, want [ferret softspoken]", names)
	}
	for _, name := range names {
		if b, err := ByName(name); err != nil || b.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v; want the backend of that Name", name, b, err)
		}
	}
	b, err := ByName("")
	if err != nil || b.Name() != Default {
		t.Fatalf("ByName(\"\") = %v, %v; want the %q backend", b, err, Default)
	}
	if _, err := ByName("iknp-classic"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown backend: got %v, want ErrUnknown", err)
	} else if !strings.Contains(err.Error(), "ferret softspoken") {
		t.Fatalf("unknown-backend error %q does not list the valid names", err)
	}
}

func checkCorrelation(t *testing.T, delta block.Block, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	for i := range z {
		want := y[i]
		if bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("correlation broken at %d", i)
		}
	}
}

// TestBackendsCorrectAndCostExact runs both backends through the same
// DealPair + lockstep path and asserts (a) the Δ-correlation on every
// output and (b) the measured wire transcript against Cost's
// ExtendBytes, byte for byte.
func TestBackendsCorrectAndCostExact(t *testing.T) {
	p := smallParams(t)
	delta := block.New(0x1d1d, 0x2e2e)
	o := Options{Seed: block.New(0xc0de, 0x5eed)}
	const iters = 3
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		connS, connR := transport.Pipe()
		s, r, err := b.DealPair(connS, connR, delta, p, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Delta(); got != delta {
			t.Fatalf("%s: Delta() = %v, want %v", name, got, delta)
		}
		batch := b.Batch(p)
		for it := 0; it < iters; it++ {
			z, bits, y, err := ExtendLockstep(s, r)
			if err != nil {
				t.Fatalf("%s it=%d: %v", name, it, err)
			}
			if len(z) != batch {
				t.Fatalf("%s: Extend yielded %d, Batch says %d", name, len(z), batch)
			}
			checkCorrelation(t, delta, z, bits, y)
		}
		cost := b.Cost(p, o)
		if got, want := connS.Stats().TotalBytes(), iters*cost.ExtendBytes; got != want {
			t.Fatalf("%s: measured %d wire bytes over %d iterations, Cost models %d", name, got, iters, want)
		}
		if cost.BytesPerCOT != float64(cost.ExtendBytes)/float64(batch) {
			t.Fatalf("%s: BytesPerCOT inconsistent with ExtendBytes/Batch", name)
		}
		if cost.BaseOTs != 128 {
			t.Fatalf("%s: BaseOTs = %d, want 128", name, cost.BaseOTs)
		}
	}
}

// recordingConn logs sent frames for transcript comparison.
type recordingConn struct {
	transport.Conn
	log bytes.Buffer
}

func (c *recordingConn) Send(p []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	c.log.Write(hdr[:])
	c.log.Write(p)
	return c.Conn.Send(p)
}

// TestTranscriptDeterminismPerBackend pins the workers-1-vs-N
// byte-identical transcript guarantee through the Backend API for
// every registered backend.
func TestTranscriptDeterminismPerBackend(t *testing.T) {
	p := smallParams(t)
	delta := block.New(0xaaaa, 0x5555)
	run := func(name string, workers int) []byte {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pS, pR := transport.Pipe()
		connS := &recordingConn{Conn: pS}
		connR := &recordingConn{Conn: pR}
		s, r, err := b.DealPair(connS, connR, delta, p, Options{Seed: block.New(0xde7, 0), Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for it := 0; it < 2; it++ {
			z, bits, y, err := ExtendLockstep(s, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkCorrelation(t, delta, z, bits, y)
		}
		return append(connS.log.Bytes(), connR.log.Bytes()...)
	}
	for _, name := range Names() {
		base := run(name, 1)
		for _, workers := range []int{2, 4} {
			if got := run(name, workers); !bytes.Equal(base, got) {
				t.Fatalf("%s: workers=%d changed the transcript", name, workers)
			}
		}
	}
}
