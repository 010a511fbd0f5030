// Package transport provides the two-party message channel the OT
// protocols run over, with byte and round accounting. The accounting
// feeds the communication columns of Figure 7(b) and the modeled
// network latencies of Figure 7(c) and Table 5: a protocol's wire time
// is bytes/bandwidth + flights*RTT.
//
// Two implementations are provided: an in-process pipe (used by tests,
// benchmarks and single-binary examples) and a length-prefixed TCP
// framing (used by cmd/otgen to run the protocol between real peers).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ironman/internal/block"
)

// Conn is a reliable, ordered, message-oriented duplex channel.
type Conn interface {
	// Send transmits one message. The implementation owns the buffer
	// after Send returns; callers may reuse p.
	Send(p []byte) error
	// Recv blocks until the next message arrives.
	Recv() ([]byte, error)
	// Stats returns the accumulated traffic counters.
	Stats() Stats
	io.Closer
}

// Stats counts traffic through one endpoint.
type Stats struct {
	MsgsSent      int
	BytesSent     int64
	MsgsReceived  int
	BytesReceived int64
	// Flights is the number of direction changes into sending: the
	// round count of the protocol as seen from this endpoint. Two
	// consecutive Sends with no intervening Recv count as one flight.
	Flights int
}

// TotalBytes is all traffic through the endpoint in both directions.
func (s Stats) TotalBytes() int64 { return s.BytesSent + s.BytesReceived }

func (s Stats) String() string {
	return fmt.Sprintf("sent %d msgs/%d B, recv %d msgs/%d B, %d flights",
		s.MsgsSent, s.BytesSent, s.MsgsReceived, s.BytesReceived, s.Flights)
}

// counter implements the shared accounting for all Conn flavours.
type counter struct {
	mu      sync.Mutex
	stats   Stats
	sending bool
}

func (c *counter) noteSend(n int) {
	c.mu.Lock()
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(n)
	if !c.sending {
		c.sending = true
		c.stats.Flights++
	}
	c.mu.Unlock()
}

func (c *counter) noteRecv(n int) {
	c.mu.Lock()
	c.stats.MsgsReceived++
	c.stats.BytesReceived += int64(n)
	c.sending = false
	c.mu.Unlock()
}

func (c *counter) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// pipeConn is one endpoint of an in-process pipe.
type pipeConn struct {
	counter
	out    chan<- []byte
	in     <-chan []byte
	closed chan struct{}
	once   sync.Once
}

// ErrClosed is returned by operations on a closed pipe.
var ErrClosed = errors.New("transport: connection closed")

// Pipe returns two connected in-process endpoints. Each direction is
// buffered; a protocol that sends bounded batches never deadlocks even
// when both parties run send-then-receive steps.
func Pipe() (Conn, Conn) {
	const depth = 1024
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	a := &pipeConn{out: ab, in: ba, closed: make(chan struct{})}
	b := &pipeConn{out: ba, in: ab, closed: make(chan struct{})}
	return a, b
}

func (p *pipeConn) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case <-p.closed:
		return ErrClosed
	case p.out <- cp:
		p.noteSend(len(msg))
		return nil
	}
}

func (p *pipeConn) Recv() ([]byte, error) {
	select {
	case <-p.closed:
		return nil, ErrClosed
	case msg := <-p.in:
		p.noteRecv(len(msg))
		return msg, nil
	}
}

func (p *pipeConn) Stats() Stats { return p.snapshot() }

func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// tcpConn frames messages over a net.Conn with a 4-byte length prefix.
type tcpConn struct {
	counter
	nc net.Conn
	mu sync.Mutex // serializes writers
}

// MaxMessage bounds a single framed message (64 MiB), protecting the
// reader from a corrupted length prefix.
const MaxMessage = 64 << 20

// NewTCP wraps an established network connection.
func NewTCP(nc net.Conn) Conn { return &tcpConn{nc: nc} }

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxMessage {
		return fmt.Errorf("transport: message of %d bytes exceeds limit", len(msg))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.nc.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := t.nc.Write(msg); err != nil {
		return err
	}
	t.noteSend(len(msg))
	return nil
}

func (t *tcpConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.nc, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return nil, fmt.Errorf("transport: incoming message of %d bytes exceeds limit", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(t.nc, msg); err != nil {
		return nil, err
	}
	t.noteRecv(len(msg))
	return msg, nil
}

func (t *tcpConn) Stats() Stats { return t.snapshot() }
func (t *tcpConn) Close() error { return t.nc.Close() }

// chunkBlocks is the largest block batch one framed message carries.
// Batches beyond it are chunked transparently by SendBlocks/RecvBlocks:
// before this existed, any mid-protocol block message past MaxMessage
// (reachable by a 2^22-instance chosen-OT reply or block open) made
// Send fail AFTER the peer had already committed to its receive,
// leaving the two parties desynced. A var, not a const, so tests can
// exercise the chunking without 64 MiB allocations.
var chunkBlocks = MaxMessage / block.Size

// sendChunked splits [0, n) into the deterministic chunk schedule the
// matching recvChunked expects: n < chunk ships one frame; otherwise
// floor(n/chunk) full frames followed by a strictly shorter terminator
// frame of n%chunk elements (possibly empty). The terminator encodes
// where the batch ends, so ANY disagreement about n between the peers
// fails loudly at the first differing frame — the multi-frame
// equivalent of the single-frame exact-length check (without it, a
// mismatch that is an exact multiple of the chunk size would succeed
// on the receiver and desync the stream). The boundary logic lives
// only here and in recvChunked so the typed helpers can never drift.
func sendChunked(n, chunk int, send func(lo, hi int) error) error {
	if n < chunk {
		return send(0, n)
	}
	lo := 0
	for n-lo >= chunk {
		if err := send(lo, lo+chunk); err != nil {
			return err
		}
		lo += chunk
	}
	return send(lo, n)
}

// recvChunked drives the multi-frame reassembly (n >= chunk): firstMsg
// is the already-received first frame; every frame is validated
// against the schedule above and handed to decode with its element
// offset.
func recvChunked(c Conn, firstMsg []byte, n, chunk, elemSize int, what string, decode func(msg []byte, off, count int)) error {
	msg := firstMsg
	full, tail := n/chunk, n%chunk
	filled := 0
	for frame := 0; ; frame++ {
		want := chunk
		if frame == full {
			want = tail
		}
		if len(msg) != want*elemSize {
			return fmt.Errorf("transport: expected %d %s, got %d bytes", want, what, len(msg))
		}
		if want > 0 {
			decode(msg, filled, want)
			filled += want
		}
		if frame == full {
			return nil
		}
		var err error
		if msg, err = c.Recv(); err != nil {
			return err
		}
	}
}

// chunkBytes is the raw-byte chunk cap of SendBytes/RecvBytes (a var
// for tests, like chunkBlocks).
var chunkBytes = MaxMessage

// SendBytes transmits an arbitrary byte frame as one logical message,
// chunking past MaxMessage. For payloads whose total size both peers
// can compute (the cot word-OT and bit-OT ciphertext frames); the
// receiver calls RecvBytes with that size.
func SendBytes(c Conn, buf []byte) error {
	return sendChunked(len(buf), chunkBytes, func(lo, hi int) error {
		return c.Send(buf[lo:hi])
	})
}

// RecvBytes receives exactly total bytes, reassembling the chunked
// framing of SendBytes.
func RecvBytes(c Conn, total int) ([]byte, error) {
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if total < chunkBytes {
		if len(msg) != total {
			return nil, fmt.Errorf("transport: expected %d bytes, got %d", total, len(msg))
		}
		return msg, nil
	}
	out := make([]byte, total)
	err = recvChunked(c, msg, total, chunkBytes, 1, "bytes", func(msg []byte, off, count int) {
		copy(out[off:off+count], msg)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SendBlocks marshals a block slice as one logical message, splitting
// it into MaxMessage-sized frames when needed. Chunk boundaries are a
// deterministic function of the batch size, so RecvBlocks(n) on the
// peer always reassembles the exact frame sequence; consecutive frames
// with no turnaround still count as one flight.
func SendBlocks(c Conn, blocks []block.Block) error {
	return sendChunked(len(blocks), chunkBlocks, func(lo, hi int) error {
		return c.Send(block.ToBytes(blocks[lo:hi]))
	})
}

// RecvBlocks receives exactly n blocks, reassembling the chunked
// framing of SendBlocks (a single frame in the n < chunk common case).
func RecvBlocks(c Conn, n int) ([]block.Block, error) {
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, n)
	err = recvChunked(c, msg, n, chunkBlocks, block.Size, "blocks", func(msg []byte, off, count int) {
		for i := 0; i < count; i++ {
			out[off+i] = block.FromBytes(msg[i*block.Size:])
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PackBits packs a bit slice 8 per byte, little-endian within bytes —
// the wire layout of every bit vector in this repo.
func PackBits(bits []bool) []byte {
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	return buf
}

// UnpackBits is the inverse of PackBits for a known bit count.
func UnpackBits(buf []byte, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = buf[i/8]>>uint(i%8)&1 == 1
	}
	return bits
}

// PackedLimbs returns the uint64 limb count of an n-bit packed vector.
func PackedLimbs(n int) int { return (n + 63) / 64 }

// PackedToWire serializes the low n bits of a limb-packed vector into
// the PackBits wire layout (8 bits per byte, little-endian within
// bytes and limbs). Bits at index >= n must be zero.
func PackedToWire(limbs []uint64, n int) []byte {
	buf := make([]byte, 8*PackedLimbs(n))
	for i := range len(buf) / 8 {
		binary.LittleEndian.PutUint64(buf[8*i:], limbs[i])
	}
	return buf[:(n+7)/8]
}

// WireToPacked parses an n-bit PackBits wire buffer into uint64 limbs,
// zeroing any trailing bits past n.
func WireToPacked(buf []byte, n int) ([]uint64, error) {
	if len(buf) != (n+7)/8 {
		return nil, fmt.Errorf("transport: expected %d packed bits, got %d bytes", n, len(buf))
	}
	limbs := make([]uint64, PackedLimbs(n))
	full := len(buf) / 8
	for i := range full {
		limbs[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	for i := 8 * full; i < len(buf); i++ {
		limbs[full] |= uint64(buf[i]) << (uint(i%8) * 8)
	}
	if r := uint(n % 64); r != 0 {
		limbs[len(limbs)-1] &= 1<<r - 1
	}
	return limbs, nil
}

// chunkWords is the word-helper twin of chunkBlocks: arith reveals and
// Beaver opens ride SendWords, so a >2^23-element open must chunk for
// the same mid-protocol-desync reason block messages do.
var chunkWords = MaxMessage / 8

// SendWords marshals a uint64 slice as one logical message — the wire
// layout of every Z_2^64 share vector (internal/arith reveals and
// Beaver opens) — chunking past MaxMessage like SendBlocks.
func SendWords(c Conn, v []uint64) error {
	return sendChunked(len(v), chunkWords, func(lo, hi int) error {
		buf := make([]byte, 8*(hi-lo))
		for i, x := range v[lo:hi] {
			binary.LittleEndian.PutUint64(buf[8*i:], x)
		}
		return c.Send(buf)
	})
}

// RecvWords receives exactly n uint64 values, reassembling the chunked
// framing of SendWords.
func RecvWords(c Conn, n int) ([]uint64, error) {
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	v := make([]uint64, n)
	err = recvChunked(c, msg, n, chunkWords, 8, "words", func(msg []byte, off, count int) {
		for i := 0; i < count; i++ {
			v[off+i] = binary.LittleEndian.Uint64(msg[8*i:])
		}
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}
