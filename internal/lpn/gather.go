package lpn

import "ironman/internal/block"

// gatherBlocks sets out[i] = w[i] ⊕ XOR_j r[idx[i*d+j]] for every row i
// of one chunk; a nil w reads as zero. out may be exactly w: both paths
// read w[i] before they store out[i]. It runs the SSE2 kernel on amd64
// and the pure-Go loop elsewhere and under -tags purego.
//
// The kernel reads r[idx[...]] without a bounds check. That is safe
// only because of the Code invariant: idx is unexported, written only
// by New with every value < K, and the encode entry points check
// len(r) == K, len(out) == N and len(w) == N before slicing a chunk.
// len(idx) is len(out)*d by construction of the chunk. idx may lie
// outside the Go heap, where nothing here keeps it mapped: the entry
// points hold the Code alive with runtime.KeepAlive until every chunk
// has returned.
//
// The runtime cannot preempt assembly, so one call is one chunk
// (encodeChunk rows, about 0.13 ms at 2^20): a stop-the-world (a GC
// phase) waits for at most the chunks in flight.
func gatherBlocks(out, w, r []block.Block, idx []uint32, d int) {
	if len(out) == 0 {
		return
	}
	if kernel {
		var wp *block.Block
		if w != nil {
			wp = &w[0]
		}
		gatherBlocksSSE2(&out[0], wp, &r[0], &idx[0], len(out), d)
		return
	}
	for i := range out {
		var lo, hi uint64
		if w != nil {
			lo, hi = w[i].Lo, w[i].Hi
		}
		for _, j := range idx[i*d : (i+1)*d] {
			lo ^= r[j].Lo
			hi ^= r[j].Hi
		}
		out[i] = block.Block{Lo: lo, Hi: hi}
	}
}

// gatherBits sets out[i] = XOR_j e[idx[i*d+j]] for every row i of one
// chunk, under the same invariant as gatherBlocks with len(e) == K.
func gatherBits(out, e []bool, idx []uint32, d int) {
	if len(out) == 0 {
		return
	}
	if kernel {
		gatherBitsSSE2(&out[0], &e[0], &idx[0], len(out), d)
		return
	}
	for i := range out {
		acc := false
		for _, j := range idx[i*d : (i+1)*d] {
			acc = acc != e[j]
		}
		out[i] = acc
	}
}
