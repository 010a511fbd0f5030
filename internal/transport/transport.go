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

// chunkBytes is the largest payload one framed message carries. Larger
// logical messages are chunked transparently by SendBytes/RecvBytes:
// before this existed, any mid-protocol message past MaxMessage
// (reachable by a 2^22-instance chosen-OT reply or block open) made
// Send fail AFTER the peer had already committed to its receive,
// leaving the two parties desynced. A var, not a const, so tests can
// exercise the chunking without 64 MiB allocations.
var chunkBytes = MaxMessage

// SendBytes transmits buf as one logical message for a peer that knows
// its length (RecvBytes with len(buf)). The chunk schedule is a
// deterministic function of that length: len(buf) < chunkBytes ships
// one frame; otherwise len(buf)/chunkBytes full frames follow, then a
// strictly shorter terminator frame of the remainder (possibly empty).
// The terminator encodes where the message ends, so ANY disagreement
// about the length fails loudly at the first differing frame — the
// multi-frame equivalent of the single-frame exact-length check
// (without it, a mismatch that is an exact multiple of the chunk size
// would succeed on the receiver and desync the stream). Consecutive
// frames with no turnaround still count as one flight. Every typed
// helper below encodes around this one schedule.
func SendBytes(c Conn, buf []byte) error {
	chunk := chunkBytes
	for len(buf) >= chunk {
		if err := c.Send(buf[:chunk]); err != nil {
			return err
		}
		buf = buf[chunk:]
	}
	return c.Send(buf)
}

// RecvBytes receives exactly total bytes, reassembling and validating
// SendBytes' chunk schedule frame by frame.
func RecvBytes(c Conn, total int) ([]byte, error) {
	chunk := chunkBytes
	full := total / chunk
	var out []byte
	if full > 0 {
		out = make([]byte, 0, total)
	}
	for frame := 0; ; frame++ {
		msg, err := c.Recv()
		if err != nil {
			return nil, err
		}
		want := chunk
		if frame == full {
			want = total % chunk
		}
		if len(msg) != want {
			return nil, fmt.Errorf("transport: expected %d bytes, got %d", want, len(msg))
		}
		if full == 0 {
			return msg, nil
		}
		out = append(out, msg...)
		if frame == full {
			return out, nil
		}
	}
}

// SendBlocks marshals a block slice as one SendBytes message.
func SendBlocks(c Conn, blocks []block.Block) error {
	return SendBytes(c, block.ToBytes(blocks))
}

// RecvBlocks receives exactly n blocks sent by SendBlocks.
func RecvBlocks(c Conn, n int) ([]block.Block, error) {
	buf, err := RecvBytes(c, n*block.Size)
	if err != nil {
		return nil, err
	}
	return block.SliceFromBytes(buf), nil
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

// SendWords marshals a uint64 slice as one SendBytes message — the
// wire layout of every Z_2^64 share vector (internal/arith reveals and
// Beaver opens).
func SendWords(c Conn, v []uint64) error {
	buf := make([]byte, 0, 8*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	return SendBytes(c, buf)
}

// RecvWords receives exactly n uint64 values sent by SendWords.
func RecvWords(c Conn, n int) ([]uint64, error) {
	buf, err := RecvBytes(c, 8*n)
	if err != nil {
		return nil, err
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return v, nil
}
