package dram

import (
	"math/rand"
	"testing"
)

func newRank() *Rank { return NewRank(DDR4_2400, DefaultGeometry) }

func TestSequentialRowHits(t *testing.T) {
	r := newRank()
	// 128 sequential lines rotate the four bank groups, so four rows
	// open (one per group) and every later access row-hits.
	for i := 0; i < 128; i++ {
		r.Read(uint64(i * 64))
	}
	if r.reads != 128 || r.rowHits != 124 || r.acts != 4 {
		t.Fatalf("stats = %d/%d/%d, want 128/124/4", r.reads, r.rowHits, r.acts)
	}
}

func TestSequentialApproachesPeakBandwidth(t *testing.T) {
	r := newRank()
	const lines = 100000
	var done int64
	for i := 0; i < lines; i++ {
		done = r.Read(uint64(i * 64))
	}
	bytes := float64(lines * 64)
	bw := bytes / float64(done)                         // bytes per cycle
	peak := float64(r.g.LineBytes) / float64(r.t.TCCDS) // data-bus limit
	if bw < 0.85*peak {
		t.Fatalf("sequential bandwidth %.2f B/cyc, want >= 85%% of peak %.2f", bw, peak)
	}
}

func TestRandomMuchSlowerThanSequential(t *testing.T) {
	seq := newRank()
	var seqDone int64
	const lines = 20000
	for i := 0; i < lines; i++ {
		seqDone = seq.Read(uint64(i * 64))
	}
	rng := rand.New(rand.NewSource(1))
	rnd := newRank()
	var rndDone int64
	for i := 0; i < lines; i++ {
		rndDone = rnd.Read(uint64(rng.Intn(1<<30)) &^ 63)
	}
	// §3.2: random access should lose well over half the bandwidth.
	if rndDone < 3*seqDone {
		t.Fatalf("random (%d cyc) should be >= 3x slower than sequential (%d cyc)", rndDone, seqDone)
	}
	if rnd.RowHitRate() > 0.05 {
		t.Fatalf("random row hit rate %.3f suspiciously high", rnd.RowHitRate())
	}
	if seq.RowHitRate() < 0.95 {
		t.Fatalf("sequential row hit rate %.3f too low", seq.RowHitRate())
	}
}

func TestSameBankRandomRespectsTRC(t *testing.T) {
	r := newRank()
	// Alternate rows within one bank: every read is a row conflict, so
	// consecutive ACTs to the same bank must be >= tRC apart.
	nBanks := uint64(16)
	rowStride := uint64(DefaultGeometry.RowBytes) * nBanks
	var prevDone int64
	for i := 0; i < 100; i++ {
		row := uint64(i % 2) // ping-pong two rows of bank 0
		done := r.Read(row * rowStride)
		if i > 0 {
			gap := done - prevDone
			if gap < int64(DDR4_2400.TRC)-int64(DDR4_2400.TRP) {
				t.Fatalf("read %d completed only %d cycles after previous", i, gap)
			}
		}
		prevDone = done
	}
	if r.rowHits != 0 {
		t.Fatal("ping-pong rows must never row-hit")
	}
}

func TestBankInterleavingHelps(t *testing.T) {
	// Random rows across many banks overlap ACT latencies and beat
	// single-bank row conflicts.
	rowStride := uint64(DefaultGeometry.RowBytes)
	oneBank := newRank()
	var oneDone int64
	for i := 0; i < 1000; i++ {
		oneDone = oneBank.Read(uint64(i) * rowStride * 16) // always bank 0
	}
	spread := newRank()
	var spreadDone int64
	for i := 0; i < 1000; i++ {
		spreadDone = spread.Read(uint64(i) * rowStride) // rotate banks
	}
	if spreadDone >= oneDone {
		t.Fatalf("bank interleaving (%d cyc) should beat single bank (%d cyc)", spreadDone, oneDone)
	}
}

func TestReadLatencyFloor(t *testing.T) {
	r := newRank()
	done := r.Read(0)
	// Cold read: ACT + tRCD + tCL + tBL.
	want := int64(DDR4_2400.TRCD + DDR4_2400.TCL + DDR4_2400.TBL)
	if done != want {
		t.Fatalf("cold read completes at %d, want %d", done, want)
	}
}

func TestCyclesTracksMaxCompletion(t *testing.T) {
	// Individual completions may reorder (a row hit overtakes a pending
	// miss, as under FR-FCFS), but Cycles() must track the maximum.
	r := newRank()
	rng := rand.New(rand.NewSource(7))
	var maxDone int64
	for i := 0; i < 10000; i++ {
		done := r.Read(uint64(rng.Intn(1<<28)) &^ 63)
		if done > maxDone {
			maxDone = done
		}
		if r.Cycles() != maxDone {
			t.Fatalf("Cycles() = %d, want %d at %d", r.Cycles(), maxDone, i)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	r := newRank()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<30)) &^ 63
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Read(addrs[i&(1<<16-1)])
	}
}
