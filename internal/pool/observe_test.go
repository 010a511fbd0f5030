package pool

import (
	"sync"
	"testing"
	"time"

	"ironman/internal/block"
	"ironman/internal/obs"
)

// dealtSlowSource yields lockstep batches of `batch` correlations
// after sleeping d per refill (simulated protocol latency).
func dealtSlowSource(batch int, d time.Duration) DealtRefill {
	return func() ([]block.Block, []bool, []block.Block, error) {
		if d > 0 {
			time.Sleep(d)
		}
		return make([]block.Block, batch), make([]bool, batch), make([]block.Block, batch), nil
	}
}

// TestObserverMatchesStats guards the one-instrument-set contract
// under a concurrent draw storm: once every draw returns, reading the
// registry-backed instruments directly must equal the pool's own Stats
// for both halves — same counters, same blocked-time total, same
// buffered count. Stats reads those instruments, so this holds by
// construction; the test catches a second counter creeping back in.
func TestObserverMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	obsS := NewObserver(reg, obs.Labels("half", "sender"))
	obsR := NewObserver(reg, obs.Labels("half", "receiver"))
	p := NewDealt(dealtSlowSource(256, 200*time.Microsecond), Config{
		Depth: 2, Obs: obsS, ObsReceiver: obsR,
	})
	defer p.Close()

	// Each goroutine draws both halves in lockstep: were the halves
	// drawn by separate goroutines, on a loaded box one half's could all
	// finish before the other's are scheduled and trip the retention
	// cap. Here the halves differ by at most 8 draws of 100, far inside
	// (Depth+8)·256, and the test stays about counter consistency, not
	// pacing.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.SenderCOTs(100); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := p.ReceiverCOTs(100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s, r := p.SenderHalf().Stats(), p.ReceiverHalf().Stats()
	if got := obsS.snapshot(); got != s {
		t.Errorf("sender half: registry snapshot %+v != pool stats %+v", got, s)
	}
	if got := obsR.snapshot(); got != r {
		t.Errorf("receiver half: registry snapshot %+v != pool stats %+v", got, r)
	}
	if s.Draws != 160 || s.Dispensed != 16000 {
		t.Fatalf("draw storm accounting off: %+v", s)
	}
}

// TestObserverNil: a nil registry still yields live instruments, so a
// pool built without Config.Obs counts its draws and refills.
func TestObserverNil(t *testing.T) {
	o := NewObserver(nil, "")
	o.draws.Inc()
	o.noteDispensed(1, 2)
	o.noteRefill(3, 4, time.Millisecond)
	o.blockedDraws.Inc()
	o.noteBlockedTime(time.Second)
	want := Stats{Generated: 3, Dispensed: 1, Refills: 1, Draws: 1,
		BlockedDraws: 1, BlockedTime: time.Second, Buffered: 4}
	if got := o.snapshot(); got != want {
		t.Fatalf("unregistered observer: %+v, want %+v", got, want)
	}
	p := NewSender(seqSource(64, 0), Config{})
	defer p.Close()
	if _, err := p.COTs(10); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Draws != 1 || st.Refills != 1 || st.Dispensed != 10 || st.Buffered != 54 {
		t.Fatalf("pool without an observer: %+v", st)
	}
}
