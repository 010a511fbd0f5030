package softspoken

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"ironman/internal/block"
	"ironman/internal/transport"
)

const testN = 1024

var testSeed = block.New(0x736f6674, 0x74657374)

// extendLockstep runs one iteration of both endpoints of an in-process
// pair concurrently (extension.ExtendLockstep, which this package cannot
// import).
func extendLockstep(s *Sender, r *Receiver) ([]block.Block, []bool, []block.Block, error) {
	var z []block.Block
	var serr error
	done := make(chan struct{})
	go func() {
		z, serr = s.Extend()
		close(done)
	}()
	bits, y, rerr := r.Extend()
	<-done
	if serr != nil {
		return nil, nil, nil, serr
	}
	return z, bits, y, rerr
}

func checkCorrelation(t *testing.T, delta block.Block, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	if len(z) != len(bits) || len(z) != len(y) {
		t.Fatalf("length mismatch: %d/%d/%d", len(z), len(bits), len(y))
	}
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

func TestDealtCorrelation(t *testing.T) {
	delta := block.New(0xdead, 0xbeef)
	connS, connR := transport.Pipe()
	s, r, err := DealPair(connS, connR, delta, testN, Options{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Several iterations: the persistent leaf streams must stay in
	// lockstep across Extends.
	for it := 0; it < 3; it++ {
		z, bits, y, err := extendLockstep(s, r)
		if err != nil {
			t.Fatalf("it=%d: %v", it, err)
		}
		if len(z) != testN {
			t.Fatalf("got %d correlations, want %d", len(z), testN)
		}
		checkCorrelation(t, delta, z, bits, y)
	}
}

func TestNetworkSetup(t *testing.T) {
	delta := block.New(0x1234, 0x5678)
	connS, connR := transport.Pipe()
	type res struct {
		s   *Sender
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := NewSender(connS, delta, testN, Options{})
		ch <- res{s, err}
	}()
	r, err := NewReceiver(connR, testN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	for it := 0; it < 2; it++ {
		z, bits, y, err := extendLockstep(sr.s, r)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrelation(t, delta, z, bits, y)
	}
}

func TestRandomDeltaChunks(t *testing.T) {
	// A delta exercising every chunk value path (all-ones: hole =
	// 2^k-1 everywhere) and the zero chunks (hole = 0).
	for _, delta := range []block.Block{block.New(^uint64(0), ^uint64(0)), block.New(1, 0), {}} {
		connS, connR := transport.Pipe()
		s, r, err := DealPair(connS, connR, delta, testN, Options{Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		z, bits, y, err := extendLockstep(s, r)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrelation(t, delta, z, bits, y)
	}
}

// recordingConn mirrors the ferret determinism-test idiom: it logs
// every sent frame (length-prefixed) so two runs' transcripts can be
// compared byte for byte.
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

func runSeeded(t *testing.T, workers int) (wire []byte, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	delta := block.New(0xfeed, 0xface)
	pS, pR := transport.Pipe()
	connS := &recordingConn{Conn: pS}
	connR := &recordingConn{Conn: pR}
	s, r, err := DealPair(connS, connR, delta, testN, Options{Seed: testSeed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 2; it++ {
		z, bits, y, err = extendLockstep(s, r)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrelation(t, delta, z, bits, y)
	}
	all := append(connS.log.Bytes(), connR.log.Bytes()...)
	return all, z, bits, y
}

func TestTranscriptDeterminismAcrossWorkers(t *testing.T) {
	wire1, z1, bits1, y1 := runSeeded(t, 1)
	// testN+128 rows are 18 transpose tiles and there are 32 chunks: 5, 7 and 11 divide neither, 19 exceeds the tiles.
	for _, workers := range []int{2, 4, 5, 7, 11, 19} {
		wireN, zN, bitsN, yN := runSeeded(t, workers)
		if !bytes.Equal(wire1, wireN) {
			t.Fatalf("workers=%d changed the wire transcript (%d vs %d bytes)", workers, len(wireN), len(wire1))
		}
		if !slices.Equal(z1, zN) || !slices.Equal(y1, yN) {
			t.Fatalf("workers=%d changed the outputs", workers)
		}
		for i := range bits1 {
			if bits1[i] != bitsN[i] {
				t.Fatalf("workers=%d changed choice bit %d", workers, i)
			}
		}
	}
}

// goldenRun is one seeded dealt pair driven for two Extends (so the
// persistent leaf streams matter): SHA-256 of the receiver's framed
// messages, of the sender's z, and of the receiver's y then choice
// bits (one byte each).
func goldenRun(t *testing.T, n, workers int) [3]string {
	t.Helper()
	delta := block.New(0x0123456789abcdef, 0xfedcba9876543210)
	pS, pR := transport.Pipe()
	connR := &recordingConn{Conn: pR}
	s, r, err := DealPair(pS, connR, delta, n, Options{Seed: testSeed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	hz, hy := sha256.New(), sha256.New()
	for it := 0; it < 2; it++ {
		z, bits, y, err := extendLockstep(s, r)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrelation(t, delta, z, bits, y)
		hz.Write(block.ToBytes(z))
		hy.Write(block.ToBytes(y))
		for _, b := range bits {
			if b {
				hy.Write([]byte{1})
			} else {
				hy.Write([]byte{0})
			}
		}
	}
	hm := sha256.Sum256(connR.log.Bytes())
	return [3]string{hex.EncodeToString(hm[:]), hex.EncodeToString(hz.Sum(nil)), hex.EncodeToString(hy.Sum(nil))}
}

// TestGoldenTranscripts holds the message bytes and both output
// vectors to the hashes recorded on the commit that still transposed
// bit by bit and refilled its AES-CTR streams one heap-allocated block
// at a time. Worker-count invariance alone would not notice a kernel
// that is wrong the same way for every worker count.
func TestGoldenTranscripts(t *testing.T) {
	golden := []struct {
		n          int
		msg, z, yx string
	}{
		{1024, "035d5a2a1dd2dabf62900905dceab022e9c63946ca852f912099c4a28e06f788", "f3f18f635a31da92101decaae1e6242fda3d5d503b61b3b586f1041c16f77f24", "51f338e135f007a39924792d0d8de471f7c6bc12d4f7bcd256481d3d4b843e35"},
		{1 << 16, "d46e1e9fc5e44848ee23e1d63635ce7ea2e38c9cee958553db156980c39a8b24", "81e98dec2bdbc2a6ce91a94e7c0d0d24de5429463f1a73abbbb1479365352ee9", "7a77ef2197b3ac29288b875722c92e675c5603d0970ccd34acb199d83c9faacc"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 3, 7} {
			got := goldenRun(t, g.n, workers)
			if want := [3]string{g.msg, g.z, g.yx}; got != want {
				t.Errorf("n=%d workers=%d: sha256(message, z, y‖x) =\n %q, want\n %q", g.n, workers, got, want)
			}
		}
	}
}

func TestWireBytesExact(t *testing.T) {
	delta := block.New(0xabcd, 0xef01)
	connS, connR := transport.Pipe()
	s, r, err := DealPair(connS, connR, delta, testN, Options{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	for it := 0; it < iters; it++ {
		if _, _, _, err := extendLockstep(s, r); err != nil {
			t.Fatal(err)
		}
	}
	got := connS.Stats().TotalBytes()
	if want := iters * WireBytes(testN); got != want {
		t.Fatalf("measured %d wire bytes over %d iterations, model says %d", got, iters, want)
	}
}

// flippingConn corrupts one bit of the first received frame's y-check
// section (its last byte), which must trip the sender's check rows.
type flippingConn struct{ transport.Conn }

func (c flippingConn) Recv() ([]byte, error) {
	p, err := c.Conn.Recv()
	if err == nil && len(p) > 0 {
		p[len(p)-1] ^= 1
	}
	return p, err
}

func TestConsistencyCheckTripsOnCorruption(t *testing.T) {
	delta := block.New(0x5555, 0xaaaa)
	pS, connR := transport.Pipe()
	s, r, err := DealPair(flippingConn{pS}, connR, delta, testN, Options{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Extend(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Extend(); !errors.Is(err, ErrConsistency) {
		t.Fatalf("corrupted correction message: got %v, want ErrConsistency", err)
	}
}

func TestOptionValidation(t *testing.T) {
	connS, connR := transport.Pipe()
	if _, _, err := DealPair(connS, connR, block.Block{}, 1001, Options{}); err == nil {
		t.Fatal("n=1001 accepted")
	}
	if _, _, err := DealPair(connS, connR, block.Block{}, 0, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// BenchmarkExtend is one 2^20 lockstep Extend, two workers per endpoint (the ledger's softspoken-extend shape
// without its harness); bytes are the sender's output blocks.
func BenchmarkExtend(b *testing.B) {
	const n = 1 << 20
	connS, connR := transport.Pipe()
	s, r, err := DealPair(connS, connR, block.New(1, 2), n, Options{Seed: testSeed, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * block.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := extendLockstep(s, r); err != nil {
			b.Fatal(err)
		}
	}
}
