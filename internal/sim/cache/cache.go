// Package cache models the memory-side cache each Rank-NMP module
// places in front of DRAM (§5.1.2 and §6.3 of the paper): a
// set-associative, LRU, write-allocate cache with 64-byte lines sized
// between 32 KB and 2 MB. The Figure 14 sweep runs LPN access traces
// through this model to pick the 256 KB / 1 MB design points.
package cache

import "fmt"

// Cache is a set-associative cache simulator.
type Cache struct {
	lineBytes int
	sets      int
	ways      int
	// tags[set*ways+way]; valid implied by tag != invalidTag.
	tags []uint64
	// lru[set*ways+way] holds a per-set logical timestamp.
	lru   []uint64
	clock uint64

	hits, misses uint64
}

const invalidTag = ^uint64(0)

// New builds a cache of the given total capacity. sizeBytes must be a
// multiple of lineBytes*ways.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("cache: bad geometry")
	}
	lines := sizeBytes / lineBytes
	if lines*lineBytes != sizeBytes || lines%ways != 0 {
		panic(fmt.Sprintf("cache: %dB/%dB lines/%d ways does not divide", sizeBytes, lineBytes, ways))
	}
	sets := lines / ways
	c := &Cache{
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		tags:      make([]uint64, lines),
		lru:       make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Access simulates one read of the given byte address, returning true
// on a hit. Misses allocate the line (evicting LRU).
func (c *Cache) Access(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	base := set * c.ways
	c.clock++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.hits++
			c.lru[base+w] = c.clock
			return true
		}
	}
	c.misses++
	// Evict LRU way.
	victim := base
	for w := 1; w < c.ways; w++ {
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	return false
}

// HitRate returns hits/(hits+misses), 0 when no accesses happened.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
