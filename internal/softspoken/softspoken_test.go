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

func TestDealtCorrelationAllFieldSizes(t *testing.T) {
	delta := block.New(0xdead, 0xbeef)
	for _, k := range []int{1, 2, 4, 8} {
		connS, connR := transport.Pipe()
		s, r, err := DealPair(connS, connR, delta, testN, Options{FieldBits: k, Seed: testSeed})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Several iterations: the persistent leaf streams must stay in
		// lockstep across Extends.
		for it := 0; it < 3; it++ {
			z, bits, y, err := extendLockstep(s, r)
			if err != nil {
				t.Fatalf("k=%d it=%d: %v", k, it, err)
			}
			if len(z) != testN {
				t.Fatalf("k=%d: got %d correlations, want %d", k, len(z), testN)
			}
			checkCorrelation(t, delta, z, bits, y)
		}
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
	// testN+128 rows are 18 transpose tiles and the default field size
	// has 32 chunks: 5, 7 and 11 divide neither, 19 exceeds the tiles.
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
func goldenRun(t *testing.T, n, k, workers int) [3]string {
	t.Helper()
	delta := block.New(0x0123456789abcdef, 0xfedcba9876543210)
	pS, pR := transport.Pipe()
	connR := &recordingConn{Conn: pR}
	s, r, err := DealPair(pS, connR, delta, n, Options{FieldBits: k, Seed: testSeed, Workers: workers})
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
		n, k       int
		msg, z, yx string
	}{
		{1024, 1, "1c9f44e29e88c3cf3b01f8a9f13055acad6a0ff8333fea5cda5c6d73e0f29e27", "4978aeb6cb5ff7190c1cf2b7cd5f6c16d3e1c8bc52b4ace3b5d6f0bf6e40ec58", "3edb7f88e75c0f13872b3b675713a458fed9ff0bccf5b37384580667bb64c504"},
		{1024, 2, "4c935ff60194c03ad7bd41f036da34fb0c71d8dd95faaaa338ce3cfb5ddbeda1", "309d6feb0b89662f10e675a42347df86eb0a61f0fd109bc8e8affec9fa0908d3", "09f6fc7ee845ba9128856b18d43ba3d5560db84cc867c3adfa1edd7763d39ac2"},
		{1024, 4, "035d5a2a1dd2dabf62900905dceab022e9c63946ca852f912099c4a28e06f788", "f3f18f635a31da92101decaae1e6242fda3d5d503b61b3b586f1041c16f77f24", "51f338e135f007a39924792d0d8de471f7c6bc12d4f7bcd256481d3d4b843e35"},
		{1024, 8, "2d39310fb05a457829f1bf9c32bc085ea12e747675c648b411b800b17ff5e302", "2f71d8f5ffc25990a501fb48aeb3d4b85c02f258f40843e00e011eaa4df63669", "937783f54787c3d440ccac38f76fdb358fdf0e84b8c78e7badb7d9d684f262f0"},
		{1 << 16, 1, "db4660637b04ec3e271f4ea6ec7be93065adc347c2ce07c42b4bf85fce55796b", "48262aaf3e3210843a3a659616cbf8e160dbc5b3c9b1d38c20014f97f9fd045b", "383ecef40ea61273c29218fffdef25d4c78879510592fd8a6393dd8819a707b6"},
		{1 << 16, 2, "32b0b11733e9b7f61568eb1b75bc26c5c885b752072205e5eb15dee03f110294", "69bbd1deda2fc2985e9fabde78e021d4fe692094022751e41378ac03fbc9598c", "8f5f829fe2cc5ef9b031ba9d7d7a9460dcb3c8b5f159829effe7987bfe5f4a1e"},
		{1 << 16, 4, "d46e1e9fc5e44848ee23e1d63635ce7ea2e38c9cee958553db156980c39a8b24", "81e98dec2bdbc2a6ce91a94e7c0d0d24de5429463f1a73abbbb1479365352ee9", "7a77ef2197b3ac29288b875722c92e675c5603d0970ccd34acb199d83c9faacc"},
		{1 << 16, 8, "bb04f51fe933559cdd0332396d11c2fe0e541dd52e6292005c907912744420fe", "b42bbcc81a198b945f7b0e646f44e751409d5bf546f514d1a8b404c232ee62a6", "129b37646a0a1775b537c79ed2bfb7126196ee104e5ac0593e66b4d317194f17"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 3, 7} {
			got := goldenRun(t, g.n, g.k, workers)
			if want := [3]string{g.msg, g.z, g.yx}; got != want {
				t.Errorf("n=%d k=%d workers=%d: sha256(message, z, y‖x) =\n %q, want\n %q", g.n, g.k, workers, got, want)
			}
		}
	}
}

func TestWireBytesExact(t *testing.T) {
	delta := block.New(0xabcd, 0xef01)
	for _, k := range []int{1, 2, 4, 8} {
		connS, connR := transport.Pipe()
		s, r, err := DealPair(connS, connR, delta, testN, Options{FieldBits: k, Seed: testSeed})
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
		if want := iters * WireBytes(testN, k); got != want {
			t.Fatalf("k=%d: measured %d wire bytes over %d iterations, model says %d", k, got, iters, want)
		}
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
	if _, _, err := DealPair(connS, connR, block.Block{}, testN, Options{FieldBits: 3}); err == nil {
		t.Fatal("FieldBits=3 accepted")
	}
	if _, _, err := DealPair(connS, connR, block.Block{}, 1001, Options{}); err == nil {
		t.Fatal("n=1001 accepted")
	}
	if _, _, err := DealPair(connS, connR, block.Block{}, 0, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// BenchmarkExtend is one 2^20 lockstep Extend at the default field
// size, two workers per endpoint (the ledger's softspoken-extend shape
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
