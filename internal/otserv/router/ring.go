// Package router is the dispenser fleet's front: a consistent-hash
// router that places new sessions (HELLOs) onto shard processes by
// their fleet-wide routing token and proxies every subsequent request
// to the owning shard, derived statelessly from the shard-scoped
// session id (wire.ShardOf). A token reconnect walks the same ring
// sequence the HELLO walked. The router holds no session state and
// caches no placements — a shard is exactly a standalone
// otserv.Server — so it can restart without losing anything.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringEntry is one virtual node: a point on the hash circle owned by a
// shard address.
type ringEntry struct {
	hash uint64
	addr string
}

// ring is a consistent-hash circle over shard addresses. Virtual nodes
// smooth placement so the per-shard session balance stays within a
// small factor of even; removing one shard moves only that shard's
// arcs, so drain/add churn does not reshuffle the fleet.
type ring struct {
	entries []ringEntry
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. Raw FNV of short similar strings
// (addr#0, addr#1, ...) clusters on the circle badly enough to skew a
// 3-shard fleet past 2x; the finalizer spreads the virtual nodes to
// near-uniform arc lengths.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodes is the virtual-node count per shard on the circle.
const vnodes = 256

// buildRing places vnodes virtual nodes per address on the circle.
func buildRing(addrs []string) ring {
	entries := make([]ringEntry, 0, len(addrs)*vnodes)
	for _, addr := range addrs {
		for i := 0; i < vnodes; i++ {
			entries = append(entries, ringEntry{hash: hashKey(addr + "#" + strconv.Itoa(i)), addr: addr})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].hash != entries[j].hash {
			return entries[i].hash < entries[j].hash
		}
		return entries[i].addr < entries[j].addr
	})
	return ring{entries: entries}
}

// sequence returns the owner of key followed by every other distinct
// address in circle order — the retry order for placement when the
// owner is draining or dead.
func (rg ring) sequence(key string) []string {
	if len(rg.entries) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(rg.entries), func(i int) bool { return rg.entries[i].hash >= h })
	if start == len(rg.entries) {
		start = 0
	}
	seen := make(map[string]bool)
	var out []string
	for i := 0; i < len(rg.entries); i++ {
		addr := rg.entries[(start+i)%len(rg.entries)].addr
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	return out
}
