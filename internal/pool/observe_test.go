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

// TestObserverMatchesStats is the registry/Stats consistency contract
// under a concurrent draw storm: once every draw returns, the
// registry-backed Observer.Snapshot must equal the pool's own Stats for
// both halves — same counters, same blocked-time total, same buffered
// count.
func TestObserverMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	obsS := NewObserver(reg, obs.Labels("half", "sender"))
	obsR := NewObserver(reg, obs.Labels("half", "receiver"))
	// No retention cap: on a loaded box one half's goroutines can all
	// finish before the other half's are scheduled, and this test is
	// about counter consistency, not pacing.
	p := NewDealt(dealtSlowSource(256, 200*time.Microsecond), Config{
		Depth: 2, Obs: obsS, ObsReceiver: obsR, MaxBuffered: -1,
	})
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.SenderCOTs(100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := p.ReceiverCOTs(100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s, r := p.SenderHalf().Stats(), p.ReceiverHalf().Stats()
	if got := obsS.Snapshot(); got != s {
		t.Errorf("sender half: registry snapshot %+v != pool stats %+v", got, s)
	}
	if got := obsR.Snapshot(); got != r {
		t.Errorf("receiver half: registry snapshot %+v != pool stats %+v", got, r)
	}
	if s.Draws != 160 || s.Dispensed != 16000 {
		t.Fatalf("draw storm accounting off: %+v", s)
	}
}

// TestObserverNil: a nil observer must be inert on every hook.
func TestObserverNil(t *testing.T) {
	var o *Observer
	o.noteDraw()
	o.noteDispensed(1, 2)
	o.noteRefill(3, 4, time.Millisecond)
	o.noteBlockedDraw()
	o.noteBlockedTime(time.Second)
	o.noteStalled()
	if o.Snapshot() != (Stats{}) {
		t.Fatal("nil observer snapshot must be zero")
	}
	if NewObserver(nil, "") != nil {
		t.Fatal("nil registry must yield nil observer")
	}
}
