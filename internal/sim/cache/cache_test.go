package cache

import (
	"math/rand"
	"testing"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(1024, 64, 2) // 16 lines, 8 sets
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("second access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same line must hit")
	}
	if c.Access(64) {
		t.Fatal("next line must miss")
	}
	if c.hits != 2 || c.misses != 2 {
		t.Fatalf("stats = %d/%d, want 2/2", c.hits, c.misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %f", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 1 set: capacity 2 lines.
	c := New(128, 64, 2)
	c.Access(0)   // A
	c.Access(64)  // B (set 0 too? sets=1, so yes)
	c.Access(0)   // touch A
	c.Access(128) // C evicts B (LRU)
	if !c.Access(0) {
		t.Fatal("A should still be resident")
	}
	if c.Access(64) {
		t.Fatal("B should have been evicted")
	}
}

func TestAssociativityConflicts(t *testing.T) {
	// Direct-mapped: lines mapping to the same set conflict.
	c := New(512, 64, 1) // 8 sets
	c.Access(0)
	c.Access(512) // same set (line 8 % 8 == 0)
	if c.Access(0) {
		t.Fatal("direct-mapped conflict should evict")
	}
	// 2-way tolerates the pair.
	c2 := New(512, 64, 2)
	c2.Access(0)
	c2.Access(512)
	if !c2.Access(0) {
		t.Fatal("2-way should keep both")
	}
}

func TestWorkingSetCapacity(t *testing.T) {
	// A working set that fits must converge to 100% hits after warmup.
	c := New(64*1024, 64, 8)
	lines := 512 // 32 KB working set in a 64 KB cache
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	hits, misses := c.hits, c.misses
	if misses != uint64(lines) {
		t.Fatalf("misses = %d, want %d cold misses only", misses, lines)
	}
	if hits != uint64(2*lines) {
		t.Fatalf("hits = %d", hits)
	}
}

func TestRandomVsSequentialHitRate(t *testing.T) {
	// The premise of the memory-side-cache design: random access to a
	// large vector barely hits; sequential access hits ~3/4 of the time
	// (4 elements of 16 B per 64 B line).
	const vectorBytes = 8 << 20
	rng := rand.New(rand.NewSource(1))
	randCache := New(256*1024, 64, 8)
	for i := 0; i < 100000; i++ {
		randCache.Access(uint64(rng.Intn(vectorBytes/16)) * 16)
	}
	seqCache := New(256*1024, 64, 8)
	for i := 0; i < 100000; i++ {
		seqCache.Access(uint64(i * 16))
	}
	if randCache.HitRate() > 0.1 {
		t.Fatalf("random hit rate %.3f too high", randCache.HitRate())
	}
	if seqCache.HitRate() < 0.74 || seqCache.HitRate() > 0.76 {
		t.Fatalf("sequential hit rate %.3f, want ~0.75", seqCache.HitRate())
	}
}

func TestLargerCacheNeverWorse(t *testing.T) {
	// Monotonicity over the Fig 14 sweep on a skewed random trace.
	rng := rand.New(rand.NewSource(2))
	trace := make([]uint64, 200000)
	for i := range trace {
		// Zipf-ish skew: half the accesses go to a hot 10%.
		if rng.Intn(2) == 0 {
			trace[i] = uint64(rng.Intn(40000)) * 16
		} else {
			trace[i] = uint64(rng.Intn(400000)) * 16
		}
	}
	prev := -1.0
	for _, kb := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		c := New(kb*1024, 64, 8)
		for _, a := range trace {
			c.Access(a)
		}
		hr := c.HitRate()
		if hr < prev-0.005 { // allow tiny LRU anomalies
			t.Fatalf("%dKB hit rate %.4f below smaller cache %.4f", kb, hr, prev)
		}
		prev = hr
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := New(2048, 64, 4)
	if c.lineBytes != 64 || c.sets*c.ways*c.lineBytes != 2048 {
		t.Fatal("geometry wrong")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 64, 1) },
		func() { New(100, 64, 1) },
		func() { New(128, 64, 3) },
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

func BenchmarkAccess(b *testing.B) {
	c := New(256*1024, 64, 8)
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)])
	}
}
