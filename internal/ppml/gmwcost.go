package ppml

import "ironman/internal/gmw"

// GMWLayerCost prices one batched nonlinear layer under the bitsliced
// GMW engine (internal/gmw): the operator-level plumbing that connects
// the Figure 15 style cost models to the engine's actual wire format.
// Every AND gate costs 2 bit-payload correlated OTs, and every OT moves
// 2 bits of online traffic (1 correction bit + 1 ciphertext bit); a
// batched layer is one two-flight exchange regardless of element count.
type GMWLayerCost struct {
	ANDGates  int64
	OTs       int64 // COT correlations consumed (2 per AND)
	WireBytes int64 // online bytes, both directions
	Exchanges int   // batched two-flight OT exchanges (network rounds)
}

// gmwWireBits is the online traffic per bit-payload correlated OT.
const gmwWireBits = 2

func gmwCost(ands int64, exchanges int) GMWLayerCost {
	ots := 2 * ands
	return GMWLayerCost{
		ANDGates:  ands,
		OTs:       ots,
		WireBytes: (gmwWireBits*ots + 7) / 8,
		Exchanges: exchanges,
	}
}

// GMWComparisonCost prices a batched width-bit greater-than layer
// (gmw.GreaterThanVec) over elems values: (3w-2) AND gates per element
// in 1+ceil(log2 w) exchanges — the DReLU/millionaire building block.
func GMWComparisonCost(elems int64, width int) GMWLayerCost {
	return gmwCost(elems*int64(3*width-2), gmw.ComparatorExchanges(width))
}

// GMWMuxCost prices a batched width-bit multiplexer layer
// (gmw.MuxVec): one AND gate per plane bit, one exchange total.
func GMWMuxCost(elems int64, width int) GMWLayerCost {
	return gmwCost(elems*int64(width), 1)
}

// GMWReLUCost prices the Boolean half of a ReLU layer (gmw.ReLUVec
// after the comparison produced sign shares): compare then mask.
func GMWReLUCost(elems int64, width int) GMWLayerCost {
	cmp := GMWComparisonCost(elems, width)
	mask := GMWMuxCost(elems, width)
	return GMWLayerCost{
		ANDGates:  cmp.ANDGates + mask.ANDGates,
		OTs:       cmp.OTs + mask.OTs,
		WireBytes: cmp.WireBytes + mask.WireBytes,
		Exchanges: cmp.Exchanges + mask.Exchanges,
	}
}

// BytesPerAND is the modeled online wire cost per AND gate.
func (c GMWLayerCost) BytesPerAND() float64 {
	if c.ANDGates == 0 {
		return 0
	}
	return float64(c.WireBytes) / float64(c.ANDGates)
}
