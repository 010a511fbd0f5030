package pool

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The backpressure tests run on one-half streams (NewSender): their
// tiny batches, slowed by seqSource's delay, make draws larger than the
// buffered stock reliably block on generation, and a single half has no
// retention cap to trip first.

// TestMaxWaitShedsWithErrDry: a draw that generation cannot satisfy
// within MaxWait fails typed instead of waiting forever, and the pool
// stays usable for draws generation can keep up with.
func TestMaxWaitShedsWithErrDry(t *testing.T) {
	p := NewSender(seqSource(8, 20*time.Millisecond), Config{
		Depth: 1, MaxWait: 60 * time.Millisecond,
	})
	defer p.Close()
	// 10 batches' worth cannot materialize in three batch times.
	if _, err := p.COTs(8 * 10); !errors.Is(err, ErrDry) {
		t.Fatalf("oversized draw err = %v, want ErrDry", err)
	}
	// A batch-sized draw succeeds afterwards: the shed consumed nothing.
	z, err := p.COTs(8)
	if err != nil {
		t.Fatalf("post-shed draw: %v", err)
	}
	if len(z) != 8 {
		t.Fatalf("post-shed draw yielded %d", len(z))
	}
}

// TestMaxWaitersShedsExcessDraws: with MaxWaiters = 1, a second
// concurrently blocked draw sheds immediately with ErrDry while the
// first eventually completes.
func TestMaxWaitersShedsExcessDraws(t *testing.T) {
	p := NewSender(seqSource(4, 30*time.Millisecond), Config{
		Depth: 1, MaxWaiters: 1,
	})
	defer p.Close()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each draw wants several batches, so most of them block.
			_, errs[i] = p.COTs(4 * 3)
		}(i)
	}
	wg.Wait()
	shed, served := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrDry):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("MaxWaiters=1 never shed a concurrent draw")
	}
	if served == 0 {
		t.Fatal("every draw shed; at least the admitted waiter must be served")
	}
}

// TestUnboundedWaitStillBlocks: without MaxWait/MaxWaiters the old
// semantics hold — a blocked draw waits for generation and succeeds.
func TestUnboundedWaitStillBlocks(t *testing.T) {
	p := NewSender(seqSource(16, time.Millisecond), Config{Depth: 1})
	defer p.Close()
	z, err := p.COTs(16 * 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) != 16*6 {
		t.Fatalf("drew %d", len(z))
	}
}
