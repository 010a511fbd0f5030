package lpn

import (
	"syscall"
	"unsafe"
)

// offHeap selects mapIdx for the index matrix; tests clear it to run
// the make arm in the same binary.
var offHeap = true

// mapIdx maps n zeroed indices from an anonymous private mapping,
// outside the Go heap, and returns the function that unmaps them. It
// returns nil when the mapping fails, and newIdx falls back to make.
//
// Each New maps fresh pages, where make would reuse a collected code's
// heap pages. New writes every page at once, so the mapping asks for
// transparent huge pages: 4 KB faults cost about 20 ms per 2^20 matrix
// (48 MB), 2 MB ones about 7, close to make's 3–6 ms of reuse. Where
// the kernel has them off, the advice is ignored and the faults stay
// small.
func mapIdx(n int) (idx []uint32, free func()) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // advice only: refused, the faults stay small
	idx = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	// Munmap fails only for a slice Mmap did not return; the cleanup
	// that calls free has no caller to report to.
	return idx, func() { _ = syscall.Munmap(b) }
}
