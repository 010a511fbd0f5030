package ppml

import "ironman/internal/circuit"

// GMWCircuitCost prices one SIMD-packed secure evaluation of a
// compiled Bristol circuit (internal/circuit) under the bitsliced GMW
// engine. Unlike the closed-form layer models above, this one is
// exact: it walks the compiled level schedule and applies the engine's
// real wire format, so it matches the measured gmw.Party counters and
// transport byte deltas to the byte (circuit.TestCircuitCostExact
// asserts this).
type GMWCircuitCost struct {
	// ANDGates is the total AND gates evaluated: circuit ANDs x
	// instances.
	ANDGates int64
	// OTs is the COT correlations consumed per endpoint, both
	// directions (2 per AND gate).
	OTs int64
	// Levels is the schedule length (AND depth + 1; the final level is
	// local-only).
	Levels int
	// Exchanges is the batched two-flight OT exchanges one evaluation
	// issues — the circuit's AND depth, independent of the instance
	// count. This is the number the SIMD packing amortizes against.
	Exchanges int
	// WireBytes is the exact online traffic at one endpoint, both
	// directions, reveal excluded: each exchange of n packed gate-bits
	// moves one ceil(n/8)-byte correction frame and one 2*ceil(n/8)-
	// byte ciphertext frame per OT direction, 6*ceil(n/8) bytes total.
	WireBytes int64
}

// CircuitCost prices evaluating instances SIMD-packed copies of the
// compiled circuit in one Eval call.
func CircuitCost(prog *circuit.Program, instances int) GMWCircuitCost {
	c := GMWCircuitCost{
		ANDGates:  int64(prog.ANDs) * int64(instances),
		Levels:    len(prog.Levels),
		Exchanges: prog.ANDLevels,
	}
	c.OTs = 2 * c.ANDGates
	for _, w := range prog.LevelANDs() {
		bits := int64(w) * int64(instances)
		c.WireBytes += 6 * ((bits + 7) / 8)
	}
	return c
}

// BytesPerAND is the modeled online wire cost per evaluated AND gate.
func (c GMWCircuitCost) BytesPerAND() float64 {
	if c.ANDGates == 0 {
		return 0
	}
	return float64(c.WireBytes) / float64(c.ANDGates)
}
