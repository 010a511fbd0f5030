package ppml

import "ironman/internal/gmw"

// Arithmetic-layer cost models (arithcost.go): the operator-level
// plumbing that connects the linear-layer cost models to the actual
// wire format of internal/arith, the way GMWLayerCost does for the
// Boolean engine. Constants mirror the implemented protocol exactly:
//
//   - A Gilboa product is 64 word OTs in one direction; instance i
//     ships one correction bit and two ciphertexts of 64-i bits, so a
//     product costs 64 + 2·2080 = 4224 wire bits (528 B).
//   - A Beaver triple is one Gilboa product per direction (128 COTs,
//     1056 B); a matrix triple is m·k·n of them.
//   - B2A ships one word OT per sub-top bit plane per element, plane j
//     at width 64-j-1.
type ArithCost struct {
	Products  int64 // scalar Gilboa products (64 COTs per direction each)
	COTs      int64 // COT correlations consumed, both directions
	WireBytes int64 // online bytes, both directions
	Exchanges int   // batched two-flight exchanges
}

// gilboaProductBits is the wire cost of ONE Gilboa product in one
// direction: 64 correction bits plus 2·sum_{i=0..63}(64-i) ciphertext
// bits.
const gilboaProductBits = 64 + 2*2080

// ArithTripleCost prices generating n scalar Beaver triples (the scalar
// products arith.NewMatTriple batches).
func ArithTripleCost(n int64) ArithCost {
	return ArithCost{
		Products:  n,
		COTs:      128 * n,
		WireBytes: (2*gilboaProductBits*n + 7) / 8,
		Exchanges: 1,
	}
}

// ArithMatTripleCost prices a Beaver matrix triple of shape
// (m×k)·(k×n) (arith.NewMatTriple): m·k·n scalar products in one
// batched exchange per direction.
func ArithMatTripleCost(m, k, n int) ArithCost {
	return ArithTripleCost(int64(m) * int64(k) * int64(n))
}

// ArithB2ACost prices converting elems width-bit Boolean vectors to
// arithmetic shares (arith.B2A): per element, one word OT per plane j
// with payload width 64-j-1 (zero-width planes cost nothing), single
// direction.
func ArithB2ACost(elems int64, width int) ArithCost {
	var ots, bits int64
	for j := 0; j < width; j++ {
		if w := 64 - j - 1; w > 0 {
			ots++
			bits += 1 + 2*int64(w)
		}
	}
	return ArithCost{
		COTs:      elems * ots,
		WireBytes: (elems*bits + 7) / 8,
		Exchanges: 1,
	}
}

// ArithA2BCost prices converting elems arithmetic shares to width-bit
// Boolean planes (arith.A2B): a width-w packed parallel-prefix adder,
// priced like any other GMW layer.
func ArithA2BCost(elems int64, width int) GMWLayerCost {
	return gmwCost(elems*int64(gmw.AdderANDGates(width)), gmw.AdderExchanges(width))
}
