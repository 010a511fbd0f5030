package ferret

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"slices"
	"testing"

	"ironman/internal/block"
	"ironman/internal/transport"
)

// recordingConn captures every message one endpoint sends (with frame
// boundaries), so two protocol runs can be compared transcript-for-
// transcript. Each endpoint is driven by a single goroutine, so the
// log needs no lock.
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

// extendRun is everything observable about one deterministic dealt run:
// both parties' outputs and both directions' wire transcripts.
type extendRun struct {
	z      [][]block.Block
	bits   [][]bool
	blocks [][]block.Block
	wireS  []byte
	wireR  []byte
}

var determinismSeed = block.New(0x7061722d646574, 0x636865636b)

// runExtends executes `iters` lockstep Extends with all randomness
// pinned by Options.Seed, at the given worker count.
func runExtends(t *testing.T, params Params, workers, iters int) extendRun {
	t.Helper()
	connS, connR := transport.Pipe()
	defer connS.Close()
	defer connR.Close()
	recS := &recordingConn{Conn: connS}
	recR := &recordingConn{Conn: connR}
	delta := block.New(11, 22)
	opts := Options{Workers: workers, Seed: determinismSeed}
	s, r, err := DealPools(recS, recR, delta, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	var run extendRun
	for i := 0; i < iters; i++ {
		z, bits, y, err := extendLockstep(s, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(delta, z, bits, y); err != nil {
			t.Fatalf("workers=%d iteration %d: %v", workers, i, err)
		}
		run.z = append(run.z, z)
		run.bits = append(run.bits, bits)
		run.blocks = append(run.blocks, y)
	}
	run.wireS = recS.log.Bytes()
	run.wireR = recR.log.Bytes()
	return run
}

func compareRuns(t *testing.T, want, got extendRun, workers int) {
	t.Helper()
	if !bytes.Equal(want.wireS, got.wireS) {
		t.Fatalf("workers=%d: sender wire transcript differs from workers=1 (%d vs %d bytes)",
			workers, len(got.wireS), len(want.wireS))
	}
	if !bytes.Equal(want.wireR, got.wireR) {
		t.Fatalf("workers=%d: receiver wire transcript differs from workers=1 (%d vs %d bytes)",
			workers, len(got.wireR), len(want.wireR))
	}
	for it := range want.z {
		if !slices.Equal(want.z[it], got.z[it]) {
			t.Fatalf("workers=%d iteration %d: sender output differs", workers, it)
		}
		if !slices.Equal(want.blocks[it], got.blocks[it]) {
			t.Fatalf("workers=%d iteration %d: receiver blocks differ", workers, it)
		}
		for i := range want.bits[it] {
			if want.bits[it][i] != got.bits[it][i] {
				t.Fatalf("workers=%d iteration %d: choice bit %d differs", workers, it, i)
			}
		}
	}
}

// TestExtendParallelDeterminismSmall cross-checks Workers=8 (and an
// oversubscribed count) against Workers=1 on small shapes that hit the
// structural corner cases quickly, including a parameter set whose
// last buckets lie beyond N (noise positions in the truncated tail).
func TestExtendParallelDeterminismSmall(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Params
	}{
		{"basic", TestParams(600, 32, 128, 8)},
		// t*l = 128 > n = 60: bucket 2 and 3 sit fully/partly beyond N,
		// so some alphas exceed N and must be filtered, deterministically.
		{"truncated-tail", TestParams(60, 32, 30, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runExtends(t, tc.params, 1, 3)
			for _, workers := range []int{2, 8, 64} {
				compareRuns(t, ref, runExtends(t, tc.params, workers, 3), workers)
			}
		})
	}
}

// TestExtendParallelDeterminismTable4 is the full-scale cross-check on
// the paper's parameter sets: Workers=8 must produce byte-identical
// outputs and wire transcripts to Workers=1. The default run covers
// the first three rows (the 2^23/2^24 rows cost gigabytes of index
// matrix); under -race the 2^22 row is also dropped (its instrumented
// LPN encode alone takes minutes). IRONMAN_FULL_TABLE4=1 forces all
// five rows in any mode; -short keeps just the smallest.
func TestExtendParallelDeterminismTable4(t *testing.T) {
	sets := []string{"2^20", "2^21", "2^22"}
	if raceDetector {
		sets = sets[:2]
	}
	if testing.Short() {
		sets = sets[:1]
	}
	if os.Getenv("IRONMAN_FULL_TABLE4") != "" {
		sets = []string{"2^20", "2^21", "2^22", "2^23", "2^24"}
	}
	for _, name := range sets {
		t.Run(name, func(t *testing.T) {
			params, err := ParamsByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Hold the shared code across both runs so the second does
			// not re-derive a matrix the GC freed in between.
			code := sharedCode(params)
			ref := runExtends(t, params, 1, 1)
			compareRuns(t, ref, runExtends(t, params, 8, 1), 8)
			runtime.KeepAlive(code)
		})
	}
}
