package block

import "encoding/binary"

// transposeWidth is the number of column bit-vectors TransposeBits
// takes: one per bit of a Block.
const transposeWidth = 8 * Size

// TransposeBits is the bit-matrix transpose of the column pipelines
// (IKNP, SoftSpoken): it overwrites dst[lo:hi] with rows lo..hi-1 of
// the matrix whose 128 columns are cols.
//
// Bit order: a column is an LSB-first bit-vector, row t of column c
// being cols[c][t>>3]>>(t&7)&1, and it lands in Bit(c) of dst[t] —
// columns 0..63 in Lo, 64..127 in Hi. Every column must hold at least
// hi bits.
//
// The work unit is a tile of 64 rows: eight contiguous bytes are read
// from each column (one little-endian word, so word c bit r is column c
// row r), the two 64×64 word squares are transposed in registers and
// cache by recursive mask-and-swap, and 1 KB of finished rows is
// written out — every input byte is read once and every output block
// written once, where a bit-by-bit loop makes 128 passes over dst.
// Tiles are independent, so callers shard [lo, hi) freely; bounds need
// not be tile-aligned (an edge tile is computed whole and only its rows
// inside [lo, hi) are stored).
func TransposeBits(dst []Block, cols [][]byte, lo, hi int) {
	if len(cols) != transposeWidth {
		panic("block: TransposeBits needs 128 columns")
	}
	var sq [2][64]uint64
	for t0 := lo &^ 63; t0 < hi; t0 += 64 {
		off := t0 >> 3
		for c, col := range cols {
			sq[c>>6][c&63] = loadWord(col[off:])
		}
		transpose64(&sq[0])
		transpose64(&sq[1])
		for t := max(lo, t0); t < min(hi, t0+64); t++ {
			dst[t] = Block{Lo: sq[0][t-t0], Hi: sq[1][t-t0]}
		}
	}
}

// loadWord reads up to eight bytes of p as a little-endian word,
// zero-extending a short tail (the last tile of a column whose length
// is not a multiple of eight bytes).
func loadWord(p []byte) uint64 {
	if len(p) >= 8 {
		return binary.LittleEndian.Uint64(p)
	}
	var w uint64
	for i, b := range p {
		w |= uint64(b) << (8 * uint(i))
	}
	return w
}

// transpose64 transposes a 64×64 bit matrix in place, bit c of a[r]
// trading places with bit r of a[c]: six rounds, each swapping the
// off-diagonal j×j quadrants of every 2j×2j sub-square (Hacker's
// Delight §7-3, mirrored for LSB-first bit numbering). The rounds are
// spelled out so every shift and mask is a constant after inlining.
func transpose64(a *[64]uint64) {
	swapQuadrants(a, 32, 0x00000000ffffffff)
	swapQuadrants(a, 16, 0x0000ffff0000ffff)
	swapQuadrants(a, 8, 0x00ff00ff00ff00ff)
	swapQuadrants(a, 4, 0x0f0f0f0f0f0f0f0f)
	swapQuadrants(a, 2, 0x3333333333333333)
	swapQuadrants(a, 1, 0x5555555555555555)
}

func swapQuadrants(a *[64]uint64, j uint, m uint64) {
	for k := uint(0); k < 64; k = (k + j + 1) &^ j {
		t := (a[k]>>j ^ a[k+j]) & m
		a[k] ^= t << j
		a[k+j] ^= t
	}
}
