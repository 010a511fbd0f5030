package lpn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ironman/internal/block"
)

func testCode(n, k int) *Code { return New(block.New(1, 2), n, k, DefaultD) }

// TestNewCodeRegular also holds New to the invariant the row kernel's
// unchecked gathers rest on: every index is < K.
func TestNewCodeRegular(t *testing.T) {
	c := testCode(500, 200)
	if len(c.idx) != 500*DefaultD {
		t.Fatal("index storage wrong size")
	}
	for i := 0; i < c.N; i++ {
		row := c.idx[i*c.D : (i+1)*c.D]
		seen := make(map[uint32]bool, len(row))
		for _, j := range row {
			if j >= uint32(c.K) {
				t.Fatalf("row %d index %d out of range", i, j)
			}
			if seen[j] {
				t.Fatalf("row %d has duplicate index %d", i, j)
			}
			seen[j] = true
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a := New(block.New(5, 6), 100, 50, 4)
	b := New(block.New(5, 6), 100, 50, 4)
	for i := range a.idx {
		if a.idx[i] != b.idx[i] {
			t.Fatal("same seed must give same code")
		}
	}
	c := New(block.New(5, 7), 100, 50, 4)
	same := true
	for i := range a.idx {
		if a.idx[i] != c.idx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different codes")
	}
}

// TestNewPinned2to20 pins a hash of the whole index matrix of the 2^20
// parameter set's code (N 1,221,516, K 168,000, d 10, ferret's
// DefaultCodeSeed): both parties derive it independently, so any change
// to New or to the stream draws behind it breaks the protocol.
// It runs on both index storages (onEachStorage).
func TestNewPinned2to20(t *testing.T) {
	onEachStorage(t, func(storage string) {
		c := New(block.New(0x69726f6e6d616e21, 0x6c706e2d636f6465), realN, realK, DefaultD)
		buf := make([]byte, 0, 4*len(c.idx))
		for _, v := range c.idx {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		runtime.KeepAlive(c)
		const want = "7fbfb3ad10b1e2d3b0c26056ff394e62739b6c5e0192cc442326b9d2a8393217"
		if got := sha256.Sum256(buf); hex.EncodeToString(got[:]) != want {
			t.Fatalf("%s: 2^20 index matrix hash = %x, want %s", storage, got, want)
		}
	})
}

// onEachStorage runs f with New's index matrix from make and, when this
// build maps it, from an anonymous mapping outside the Go heap, in one
// test binary.
func onEachStorage(t testing.TB, f func(storage string)) {
	m := offHeap
	t.Cleanup(func() { offHeap = m })
	offHeap = false
	f("make")
	if !m {
		t.Log("no off-heap index storage in this build: only make runs")
		return
	}
	offHeap = true
	f("mmap")
}

// TestCodeUnmappedOnCollect: a mapped index matrix is unmapped once its
// Code is collected, and a code derived afterwards encodes as before.
func TestCodeUnmappedOnCollect(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); !offHeap || err != nil {
		t.Skip("no mapped index storage or no /proc/self/maps here")
	}
	r := filledBlocks(64)
	encode := func() (out []block.Block, addr uint64) {
		c := New(block.New(3, 4), 5000, 64, DefaultD)
		out = make([]block.Block, c.N)
		c.EncodeBlocksParallel(out, r, nil, 2)
		return out, uint64(uintptr(unsafe.Pointer(&c.idx[0])))
	}
	want, addr := encode()
	if !mapped(t, addr) {
		t.Fatalf("index matrix at %#x is in no mapping", addr)
	}
	for i := 0; mapped(t, addr); i++ {
		if i == 100 {
			t.Fatalf("index matrix at %#x still mapped after %d collections", addr, i)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got, _ := encode(); !slices.Equal(got, want) {
		t.Fatal("a code derived after the first was unmapped encodes differently")
	}
}

// mapped reports whether addr lies in one of the process's mappings.
func mapped(t *testing.T, addr uint64) bool {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for line := range strings.Lines(string(maps)) {
		span, _, _ := strings.Cut(line, " ")
		lo, hi, _ := strings.Cut(span, "-")
		l, err1 := strconv.ParseUint(lo, 16, 64)
		h, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsed /proc/self/maps line %q", line)
		}
		if l <= addr && addr < h {
			return true
		}
	}
	return false
}

// TestEncodeYieldsToGC: the row kernel cannot be preempted, so a
// stop-the-world waits for the kernel calls in flight. Ten collections
// beside a looping 2^20 encode on one worker must pause for less than
// 200 ms in total: a chunked encode waits about 0.13 ms per pause,
// while one call per shard read 768–987 ms.
func TestEncodeYieldsToGC(t *testing.T) {
	c := realCode()
	r, w := filledBlocks(realK), filledBlocks(realN)
	out := make([]block.Block, realN)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.EncodeBlocksParallel(out, r, w, 1)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	close(stop)
	<-done
	pause := time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if pause >= 200*time.Millisecond {
		t.Fatalf("ten collections beside a 2^20 encode paused %v in total, want < 200ms", pause)
	}
	t.Logf("ten collections paused %v in total", pause)
}

// onEachPath runs f on the pure-Go rows and, when this build has it, on
// the SSE2 row kernel, in one test binary.
func onEachPath(t testing.TB, f func(path string)) {
	k := kernel
	t.Cleanup(func() { kernel = k })
	kernel = false
	f("go")
	if !k {
		t.Log("no row kernel in this build: only the pure-Go rows run")
		return
	}
	kernel = true
	f("sse2")
}

// TestGatherMatchesReference holds both row paths to a plain per-row
// loop, blocks and bits, for several row weights, every row count
// around the edges and one that spans several claimed chunks, with and
// without w, out of place and in place (out == w), at every worker
// count 1..5.
func TestGatherMatchesReference(t *testing.T) {
	const k = 64
	rng := rand.New(rand.NewSource(35))
	r := make([]block.Block, k)
	e := make([]bool, k)
	for i := range r {
		r[i] = block.New(rng.Uint64(), rng.Uint64())
		e[i] = rng.Intn(2) == 1
	}
	onEachPath(t, func(path string) {
		for _, d := range []int{1, 2, 4, 10, 16} {
			for _, n := range []int{0, 1, 2, 7, 8, 9, 1000, 3*encodeChunk + 7} {
				w := make([]block.Block, n)
				for i := range w {
					w[i] = block.New(rng.Uint64(), rng.Uint64())
				}
				c := &Code{N: n, K: k, D: d, idx: make([]uint32, n*d)}
				if n > 0 {
					c = New(block.New(uint64(d), uint64(n)), n, k, d)
				}
				for _, withW := range []bool{false, true} {
					ws := w
					if !withW {
						ws = nil
					}
					wantB := make([]block.Block, n)
					wantX := make([]bool, n)
					for i := 0; i < n; i++ {
						if ws != nil {
							wantB[i] = ws[i]
						}
						for _, j := range c.idx[i*d : (i+1)*d] {
							wantB[i] = wantB[i].Xor(r[j])
							wantX[i] = wantX[i] != e[j]
						}
					}
					for workers := 1; workers <= 5; workers++ {
						gotB := make([]block.Block, n)
						gotX := make([]bool, n)
						c.EncodeBlocksParallel(gotB, r, ws, workers)
						if err := c.EncodeBitsParallel(gotX, e, nil, workers); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gotB, wantB) || !slices.Equal(gotX, wantX) {
							t.Fatalf("%s d=%d n=%d w=%v workers=%d: rows differ from the reference", path, d, n, withW, workers)
						}
						if withW {
							inPlace := slices.Clone(ws)
							c.EncodeBlocksSpans(inPlace, r, inPlace, workers, nil, 0)
							if !slices.Equal(inPlace, gotB) {
								t.Fatalf("%s d=%d n=%d workers=%d: in-place rows differ from out of place", path, d, n, workers)
							}
						}
					}
				}
			}
		}
	})
}

// TestEncodeLinearity: encoding is linear over GF(2)^128, so
// E(r1 ⊕ r2, w1 ⊕ w2) = E(r1, w1) ⊕ E(r2, w2).
func TestEncodeLinearity(t *testing.T) {
	c := testCode(64, 32)
	rng := rand.New(rand.NewSource(4))
	randBlocks := func(n int) []block.Block {
		s := make([]block.Block, n)
		for i := range s {
			s[i] = block.New(rng.Uint64(), rng.Uint64())
		}
		return s
	}
	r1, r2 := randBlocks(32), randBlocks(32)
	w1, w2 := randBlocks(64), randBlocks(64)
	out1 := make([]block.Block, 64)
	out2 := make([]block.Block, 64)
	c.EncodeBlocksParallel(out1, r1, w1, 1)
	c.EncodeBlocksParallel(out2, r2, w2, 1)

	r12 := make([]block.Block, 32)
	w12 := make([]block.Block, 64)
	for i := range r12 {
		r12[i] = r1[i].Xor(r2[i])
	}
	for i := range w12 {
		w12[i] = w1[i].Xor(w2[i])
	}
	out12 := make([]block.Block, 64)
	c.EncodeBlocksParallel(out12, r12, w12, 1)
	for i := range out12 {
		if out12[i] != out1[i].Xor(out2[i]) {
			t.Fatalf("linearity broken at %d", i)
		}
	}
}

// TestCOTPreservation is the protocol-level property §2.3.2 relies on:
// if the inputs are correlated (r = s ⊕ e·Δ element-wise, w = v ⊕ u·Δ)
// then the outputs satisfy z = y ⊕ x·Δ.
func TestCOTPreservation(t *testing.T) {
	const n, k = 128, 48
	c := testCode(n, k)
	rng := rand.New(rand.NewSource(5))
	delta := block.New(rng.Uint64(), rng.Uint64())

	s := make([]block.Block, k)
	e := make([]bool, k)
	r := make([]block.Block, k)
	for i := range s {
		s[i] = block.New(rng.Uint64(), rng.Uint64())
		e[i] = rng.Intn(2) == 1
		r[i] = s[i]
		if e[i] {
			r[i] = r[i].Xor(delta)
		}
	}
	points := []int{3, 77, 101}
	v := make([]block.Block, n)
	w := make([]block.Block, n)
	isPoint := make(map[int]bool)
	for _, p := range points {
		isPoint[p] = true
	}
	for i := range v {
		v[i] = block.New(rng.Uint64(), rng.Uint64())
		w[i] = v[i]
		if isPoint[i] {
			w[i] = w[i].Xor(delta)
		}
	}

	z := make([]block.Block, n)
	y := make([]block.Block, n)
	x := make([]bool, n)
	c.EncodeBlocksParallel(z, r, w, 1)
	c.EncodeBlocksParallel(y, s, v, 1)
	if err := c.EncodeBitsParallel(x, e, points, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := y[i]
		if x[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("output correlation broken at %d", i)
		}
	}
}

func TestEncodeBitsSparsePoints(t *testing.T) {
	c := testCode(32, 16)
	e := make([]bool, 16) // all zero
	out := make([]bool, 32)
	if err := c.EncodeBitsParallel(out, e, []int{5, 31}, 1); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		want := i == 5 || i == 31
		if b != want {
			t.Fatalf("bit %d = %v, want %v", i, b, want)
		}
	}
}

// TestEncodeBitsRejectsBadPoints: out-of-range noise positions used to
// be dropped silently (and negative ones crashed with an index panic),
// producing a wrong correlation with no signal. They must fail loudly.
func TestEncodeBitsRejectsBadPoints(t *testing.T) {
	c := testCode(32, 16)
	e := make([]bool, 16)
	out := make([]bool, 32)
	for _, points := range [][]int{{40}, {32}, {-1}, {5, 31, 32}} {
		if err := c.EncodeBitsParallel(out, e, points, 1); err == nil {
			t.Fatalf("points %v: expected error", points)
		}
	}
	// A failed call must not have flipped any valid point it validated.
	if err := c.EncodeBitsParallel(out, e, nil, 1); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b {
			t.Fatalf("bit %d set after rejected encode", i)
		}
	}
}

// TestEncodeParallelDeterminism: sharded encodes must be bit-identical
// to one worker's for every worker count, including counts that
// exceed the row count.
func TestEncodeParallelDeterminism(t *testing.T) {
	const n, k = 257, 64 // odd n exercises uneven shard boundaries
	c := testCode(n, k)
	rng := rand.New(rand.NewSource(9))
	r := make([]block.Block, k)
	e := make([]bool, k)
	for i := range r {
		r[i] = block.New(rng.Uint64(), rng.Uint64())
		e[i] = rng.Intn(2) == 1
	}
	w := make([]block.Block, n)
	for i := range w {
		w[i] = block.New(rng.Uint64(), rng.Uint64())
	}
	points := []int{0, 100, n - 1}

	wantB := make([]block.Block, n)
	c.EncodeBlocksParallel(wantB, r, w, 1)
	wantX := make([]bool, n)
	if err := c.EncodeBitsParallel(wantX, e, points, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, n + 5} {
		gotB := make([]block.Block, n)
		c.EncodeBlocksParallel(gotB, r, w, workers)
		gotX := make([]bool, n)
		if err := c.EncodeBitsParallel(gotX, e, points, workers); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if gotB[i] != wantB[i] || gotX[i] != wantX[i] {
				t.Fatalf("workers=%d: row %d differs from one worker", workers, i)
			}
		}
	}
}

// TestAccessTraceLength: the sorted view's access stream (what the
// Rank-NMP model replays) touches every row's D indices, all in range.
func TestAccessTraceLength(t *testing.T) {
	c := testCode(100, 40)
	count := 0
	c.Sort(designSort).AccessTrace(func(col uint32) {
		if col >= 40 {
			t.Fatalf("trace column %d out of range", col)
		}
		count++
	})
	if count != 100*DefaultD {
		t.Fatalf("trace length = %d, want %d", count, 100*DefaultD)
	}
}

func TestPanicsOnBadDims(t *testing.T) {
	for _, f := range []func(){
		func() { New(block.Block{}, 0, 10, 4) },
		func() { New(block.Block{}, 10, 3, 4) },
		func() { testCode(10, 40).EncodeBlocksParallel(make([]block.Block, 9), make([]block.Block, 40), nil, 1) },
		func() { testCode(10, 40).EncodeBitsParallel(make([]bool, 10), make([]bool, 39), nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// realN and realK are the 2^20 parameter set's code shape: r is 2.7 MB,
// past the small caches the arms at k = 2^14 stay in.
const realN, realK = 1221516, 168000

var realCode = sync.OnceValue(func() *Code { return New(block.New(1, 2), realN, realK, DefaultD) })

// filledBlocks returns n distinct non-zero blocks. Benchmark inputs
// must be written: an untouched allocation maps the zero page, and
// gathers from it all hit one cached page.
func filledBlocks(n int) []block.Block {
	s := make([]block.Block, n)
	for i := range s {
		s[i] = block.New(uint64(i)*0x9e3779b97f4a7c15, uint64(i)+1)
	}
	return s
}

// BenchmarkEncodeReal times the row kernels at the 2^20 shape on each
// path: one block encode and one bit encode on one worker, and the
// ferret-extend shape, both endpoints' block encodes at once on two
// workers each. ns/block is per gathered block.
func BenchmarkEncodeReal(b *testing.B) {
	c := realCode()
	r, w := filledBlocks(realK), filledBlocks(realN)
	e := make([]bool, realK)
	for i := range e {
		e[i] = i%3 == 0
	}
	outs := [2][]block.Block{make([]block.Block, realN), make([]block.Block, realN)}
	x := make([]bool, realN)
	gathered := float64(realN * DefaultD)
	onEachPath(b, func(path string) {
		b.Run("blocks/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.EncodeBlocksParallel(outs[0], r, w, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/gathered, "ns/block")
		})
		b.Run("bits/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.EncodeBitsParallel(x, e, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/gathered, "ns/block")
		})
		b.Run("both-endpoints/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, out := range outs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c.EncodeBlocksParallel(out, r, w, 2)
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*gathered), "ns/block")
		})
	})
}

func BenchmarkEncodeBlocks(b *testing.B) {
	const n, k = 1 << 16, 1 << 14
	c := testCode(n, k)
	r := filledBlocks(k)
	out := make([]block.Block, n)
	b.SetBytes(int64(n * DefaultD * block.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeBlocksParallel(out, r, nil, 1)
	}
}

func BenchmarkEncodeBlocksParallel(b *testing.B) {
	const n, k = 1 << 18, 1 << 15
	c := testCode(n, k)
	r := filledBlocks(k)
	out := make([]block.Block, n)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n * DefaultD * block.Size))
			for i := 0; i < b.N; i++ {
				c.EncodeBlocksParallel(out, r, nil, workers)
			}
		})
	}
}
