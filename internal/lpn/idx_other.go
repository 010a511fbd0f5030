//go:build !linux

package lpn

// offHeap is false: New maps its index matrix only on Linux, so here it
// always comes from make.
var offHeap = false

func mapIdx(n int) (idx []uint32, free func()) { return nil, nil }
