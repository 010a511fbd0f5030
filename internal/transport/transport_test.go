package transport

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ironman/internal/block"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := []byte("hello")
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("got %q", got)
	}
}

func TestPipeSenderMayReuseBuffer(t *testing.T) {
	a, b := Pipe()
	buf := []byte{1, 2, 3}
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate after send
	got, _ := b.Recv()
	if got[0] != 1 {
		t.Fatal("pipe must copy the message on send")
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	b.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal("peer close should not break the other endpoint's buffer")
	}
}

func TestStatsAndFlights(t *testing.T) {
	a, b := Pipe()
	_ = a.Send(make([]byte, 10))
	_ = a.Send(make([]byte, 20)) // same flight
	_, _ = b.Recv()
	_, _ = b.Recv()
	_ = b.Send(make([]byte, 5))
	_, _ = a.Recv()
	_ = a.Send(make([]byte, 1)) // new flight after receiving

	sa := a.Stats()
	if sa.MsgsSent != 3 || sa.BytesSent != 31 {
		t.Fatalf("sender stats wrong: %+v", sa)
	}
	if sa.Flights != 2 {
		t.Fatalf("sender flights = %d, want 2", sa.Flights)
	}
	sb := b.Stats()
	if sb.BytesReceived != 30 || sb.Flights != 1 {
		t.Fatalf("receiver stats wrong: %+v", sb)
	}
	if sa.TotalBytes() != 31+5 {
		t.Fatalf("TotalBytes = %d", sa.TotalBytes())
	}
	if sa.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- NewTCP(nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP(nc)
	server := <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	defer client.Close()
	defer server.Close()

	msgs := [][]byte{[]byte("one"), {}, make([]byte, 100000)}
	for _, m := range msgs {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(m) {
			t.Fatalf("len = %d, want %d", len(got), len(m))
		}
	}
	if err := server.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	if got, _ := client.Recv(); string(got) != "reply" {
		t.Fatal("reply mismatch")
	}
	if client.Stats().MsgsSent != 3 {
		t.Fatalf("client stats: %+v", client.Stats())
	}
}

// tcpPair builds a connected framed pair over loopback.
func tcpPair(t *testing.T) (client, server Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- NewTCP(nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client = NewTCP(nc)
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTCPZeroLengthMessage(t *testing.T) {
	client, server := tcpPair(t)
	// A zero-length message is a valid frame in both directions and
	// must not be conflated with EOF or with the next frame.
	if err := client.Send(nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes, want 0", len(got))
	}
	if got, err = server.Recv(); err != nil || string(got) != "after" {
		t.Fatalf("frame after empty one corrupted: %q, %v", got, err)
	}
	if err := server.Send([]byte{}); err != nil {
		t.Fatal(err)
	}
	if got, err = client.Recv(); err != nil || len(got) != 0 {
		t.Fatalf("reverse empty frame: %q, %v", got, err)
	}
	st := client.Stats()
	if st.MsgsSent != 2 || st.MsgsReceived != 1 {
		t.Fatalf("stats must count empty frames: %+v", st)
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	client, server := tcpPair(t)
	if err := client.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	// The buffered frame still arrives...
	got, err := server.Recv()
	if err != nil || string(got) != "last words" {
		t.Fatalf("buffered frame: %q, %v", got, err)
	}
	// ...then Recv reports the closed peer, and keeps reporting it.
	if _, err := server.Recv(); err == nil {
		t.Fatal("Recv after peer close must fail")
	}
	if _, err := server.Recv(); err == nil {
		t.Fatal("repeated Recv after peer close must fail")
	}
}

func TestTCPConcurrentSendRecv(t *testing.T) {
	// Multiple writers per endpoint with simultaneous reads in both
	// directions: the write lock must keep frames intact (run under
	// -race via scripts/ci.sh).
	client, server := tcpPair(t)
	const writers = 4
	const msgs = 64
	payload := func(tag, i int) []byte {
		return []byte{byte(tag), byte(i), byte(i >> 8), 7}
	}
	pump := func(c Conn) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := c.Send(payload(w, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	drain := func(c Conn, got map[[2]byte]int) error {
		for i := 0; i < writers*msgs; i++ {
			msg, err := c.Recv()
			if err != nil {
				return err
			}
			if len(msg) != 4 || msg[3] != 7 {
				return fmt.Errorf("frame torn: %v", msg)
			}
			got[[2]byte{msg[0], msg[1]}]++
		}
		return nil
	}
	var wg sync.WaitGroup
	results := make([]map[[2]byte]int, 2)
	for i, c := range []Conn{client, server} {
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			pump(c)
		}(i, c)
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			results[i] = make(map[[2]byte]int)
			if err := drain(c, results[i]); err != nil {
				t.Error(err)
			}
		}(i, c)
	}
	wg.Wait()
	for i, got := range results {
		if len(got) != writers*msgs {
			t.Fatalf("endpoint %d: %d distinct frames, want %d", i, len(got), writers*msgs)
		}
	}
}

func TestBlockHelpers(t *testing.T) {
	a, b := Pipe()
	blocks := []block.Block{block.New(1, 2), block.New(3, 4)}
	if err := SendBlocks(a, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := RecvBlocks(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, blocks) {
		t.Fatal("blocks mismatch")
	}
	_ = SendBlocks(a, blocks)
	if _, err := RecvBlocks(b, 3); err == nil {
		t.Fatal("expected length error")
	}
}

// TestBlockChunkingBoundary exercises the chunked block framing around
// the per-message cap: under it (one frame), at and past it (full
// frames plus the strictly-short terminator that makes batch-size
// disagreements detectable). Batches past MaxMessage used to fail
// mid-protocol, desyncing the peer; lowering chunkBlocks lets the
// regression run without 64 MiB allocations.
func TestBlockChunkingBoundary(t *testing.T) {
	saved := chunkBlocks
	chunkBlocks = 8
	defer func() { chunkBlocks = saved }()

	for _, tc := range []struct {
		n    int
		msgs int
	}{
		{0, 1}, {1, 1}, {7, 1}, {8, 2}, {9, 2}, {16, 3}, {17, 3}, {29, 4},
	} {
		a, b := Pipe()
		blocks := make([]block.Block, tc.n)
		for i := range blocks {
			blocks[i] = block.New(uint64(i), uint64(i)*3+1)
		}
		base := a.Stats()
		errCh := make(chan error, 1)
		go func() { errCh <- SendBlocks(a, blocks) }()
		got, err := RecvBlocks(b, tc.n)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("n=%d: send: %v", tc.n, err)
		}
		if !slices.Equal(got, blocks) {
			t.Fatalf("n=%d: blocks mismatch", tc.n)
		}
		st := a.Stats()
		if sent := st.MsgsSent - base.MsgsSent; sent != tc.msgs {
			t.Fatalf("n=%d: %d frames, want %d", tc.n, sent, tc.msgs)
		}
		// Chunking must not inflate the round count: consecutive
		// frames in one direction are one flight.
		if flights := st.Flights - base.Flights; flights != 1 {
			t.Fatalf("n=%d: %d flights, want 1", tc.n, flights)
		}
	}
}

// TestBlockChunkingOverTCP round-trips a multi-frame batch through the
// real length-prefixed TCP framing (the layer whose MaxMessage limit
// made oversized batches fail before chunking).
func TestBlockChunkingOverTCP(t *testing.T) {
	saved := chunkBlocks
	chunkBlocks = 1024
	defer func() { chunkBlocks = saved }()

	client, server := tcpPair(t)
	defer client.Close()
	defer server.Close()
	const n = 5*1024 + 37 // 6 frames
	blocks := make([]block.Block, n)
	for i := range blocks {
		blocks[i] = block.New(uint64(i), ^uint64(i))
	}
	errCh := make(chan error, 1)
	go func() { errCh <- SendBlocks(client, blocks) }()
	got, err := RecvBlocks(server, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, blocks) {
		t.Fatal("blocks mismatch over TCP chunked framing")
	}
}

// TestBlockChunkingLengthMismatch: a chunked receive fails loudly when
// the sender's batch size disagrees with the receiver's — including
// disagreements that are an exact multiple of the chunk size, which
// only the terminator frame can expose.
func TestBlockChunkingLengthMismatch(t *testing.T) {
	saved := chunkBlocks
	chunkBlocks = 4
	defer func() { chunkBlocks = saved }()

	for _, tc := range []struct{ sent, expected int }{
		{6, 9},
		{12, 8},  // multiple-of-chunk disagreement: terminator mismatch
		{8, 12},  // receiver expects more full frames than were sent
		{4, 3},   // sender chunked, receiver on the single-frame path
		{3, 4},   // sender single-frame, receiver chunked
		{8, 0x7}, // terminator vs full-frame confusion
	} {
		a, b := Pipe()
		go func() { _ = SendBlocks(a, make([]block.Block, tc.sent)) }()
		if _, err := RecvBlocks(b, tc.expected); err == nil {
			t.Fatalf("sent %d, expected %d: mismatch must error", tc.sent, tc.expected)
		}
	}
}

// TestByteChunkingBoundary: the raw-byte framing behind the cot
// ciphertext frames chunks like the block framing.
func TestByteChunkingBoundary(t *testing.T) {
	saved := chunkBytes
	chunkBytes = 16
	defer func() { chunkBytes = saved }()

	for _, tc := range []struct {
		n    int
		msgs int
	}{
		{0, 1}, {15, 1}, {16, 2}, {17, 2}, {32, 3}, {45, 3},
	} {
		a, b := Pipe()
		buf := make([]byte, tc.n)
		for i := range buf {
			buf[i] = byte(i*7 + 3)
		}
		base := a.Stats()
		errCh := make(chan error, 1)
		go func() { errCh <- SendBytes(a, buf) }()
		got, err := RecvBytes(b, tc.n)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("n=%d: send: %v", tc.n, err)
		}
		if !reflect.DeepEqual(got, buf) {
			t.Fatalf("n=%d: bytes mismatch", tc.n)
		}
		if sent := a.Stats().MsgsSent - base.MsgsSent; sent != tc.msgs {
			t.Fatalf("n=%d: %d frames, want %d", tc.n, sent, tc.msgs)
		}
	}
}

// TestWordChunkingBoundary: the word framing chunks like the block
// framing (arith reveals/Beaver opens are the >MaxMessage users).
func TestWordChunkingBoundary(t *testing.T) {
	saved := chunkWords
	chunkWords = 8
	defer func() { chunkWords = saved }()

	for _, tc := range []struct {
		n    int
		msgs int
	}{
		{0, 1}, {7, 1}, {8, 2}, {9, 2}, {16, 3}, {21, 3},
	} {
		a, b := Pipe()
		words := make([]uint64, tc.n)
		for i := range words {
			words[i] = uint64(i)*0x9e3779b9 + 1
		}
		base := a.Stats()
		errCh := make(chan error, 1)
		go func() { errCh <- SendWords(a, words) }()
		got, err := RecvWords(b, tc.n)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("n=%d: send: %v", tc.n, err)
		}
		if !reflect.DeepEqual(got, words) {
			t.Fatalf("n=%d: words mismatch", tc.n)
		}
		if sent := a.Stats().MsgsSent - base.MsgsSent; sent != tc.msgs {
			t.Fatalf("n=%d: %d frames, want %d", tc.n, sent, tc.msgs)
		}
	}
	// Mismatched batch sizes still fail loudly.
	a, b := Pipe()
	go func() { _ = SendWords(a, make([]uint64, 10)) }()
	if _, err := RecvWords(b, 17); err == nil {
		t.Fatal("expected chunk length error")
	}
}

func TestBitHelpers(t *testing.T) {
	bits := []bool{true, false, true, true, false, false, false, true, true}
	wire := PackBits(bits)
	if !reflect.DeepEqual(wire, []byte{0x8d, 0x01}) {
		t.Fatalf("PackBits = %x, want 8d01", wire)
	}
	if got := UnpackBits(wire, len(bits)); !reflect.DeepEqual(got, bits) {
		t.Fatalf("UnpackBits = %v, want %v", got, bits)
	}
	limbs, err := WireToPacked(wire, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(limbs, []uint64{0x18d}) {
		t.Fatalf("WireToPacked = %x, want [18d]", limbs)
	}
	if got := PackedToWire(limbs, len(bits)); !reflect.DeepEqual(got, wire) {
		t.Fatalf("PackedToWire = %x, want %x", got, wire)
	}
	if _, err := WireToPacked(wire, 17); err == nil {
		t.Fatal("expected length error")
	}
}
