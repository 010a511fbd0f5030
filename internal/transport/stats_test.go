package transport

import (
	"sync"
	"sync/atomic"
	"testing"

	"ironman/internal/block"
)

// TestStatsSnapshotConsistency hammers one pipe endpoint with
// concurrent chunked sends while a poller snapshots Stats() the whole
// time. Every snapshot must be internally consistent — never torn
// between the byte and message counters:
//
//   - all non-terminator frames are exactly chunkBytes bytes (the
//     batch size is a chunk multiple), so BytesSent is always a whole
//     number of frames;
//   - a message carries at most one frame, so frames <= MsgsSent;
//   - counters are monotone across polls;
//   - with no Recv on the sending endpoint, Flights pins at 1.
//
// Run under -race this also proves Stats() takes the counter lock: an
// unlocked read would trip the detector against noteSend.
func TestStatsSnapshotConsistency(t *testing.T) {
	saved := chunkBytes
	chunkBytes = 8 * block.Size
	defer func() { chunkBytes = saved }()
	frameBytes := int64(chunkBytes)

	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const (
		senders = 4
		sends   = 50
		frames  = 3 // full frames per logical send
	)
	// Each logical SendBlocks ships `frames` full chunks plus an empty
	// terminator frame (batch size is an exact chunk multiple).
	totalMsgs := senders * sends * (frames + 1)

	// Drain the peer so the pipe's buffered channels never block.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for i := 0; i < totalMsgs; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Stats
		for !done.Load() {
			s := a.Stats()
			if s.BytesSent%frameBytes != 0 {
				t.Errorf("torn snapshot: %d bytes is not a whole number of %d-byte frames", s.BytesSent, frameBytes)
				return
			}
			if s.BytesSent/frameBytes > int64(s.MsgsSent) {
				t.Errorf("torn snapshot: %d bytes implies more frames than %d messages", s.BytesSent, s.MsgsSent)
				return
			}
			if s.MsgsSent < prev.MsgsSent || s.BytesSent < prev.BytesSent {
				t.Errorf("counters went backwards: %+v after %+v", s, prev)
				return
			}
			if s.MsgsSent > 0 && s.Flights != 1 {
				t.Errorf("flights = %d with no turnaround, want 1", s.Flights)
				return
			}
			prev = s
		}
	}()

	batch := make([]block.Block, frames*chunkBytes/block.Size)
	var sendWG sync.WaitGroup
	for g := 0; g < senders; g++ {
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for i := 0; i < sends; i++ {
				if err := SendBlocks(a, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sendWG.Wait()
	done.Store(true)
	wg.Wait()
	<-drained

	s := a.Stats()
	if s.MsgsSent != totalMsgs || s.BytesSent != int64(senders*sends*frames)*frameBytes {
		t.Fatalf("final stats %+v: want %d msgs, %d bytes",
			s, totalMsgs, int64(senders*sends*frames)*frameBytes)
	}
	if got := b.Stats(); got.MsgsReceived != totalMsgs || got.BytesReceived != s.BytesSent {
		t.Fatalf("receiver stats %+v disagree with sender %+v", got, s)
	}
}
