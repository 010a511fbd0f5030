package circuit

import (
	"fmt"

	"ironman/internal/gmw"
	"ironman/internal/obs"
)

// EvalOpts tunes one secure evaluation. The zero value (or a nil
// pointer) disables all instrumentation.
type EvalOpts struct {
	// Trace, when non-nil, records one "circuit.level" span per
	// schedule level (local gates + the batched exchange), with the
	// level index and AND count in the span args.
	Trace *obs.Tracer
	// TID is the tracer thread lane; 0 defaults to lane 1.
	TID int
}

// PackInstances lays K instances of plaintext bits out as per-wire
// planes: instances[k] is instance k's LSB-first bit vector, and plane
// i carries bit i of every instance (bit k of plane i = instance k's
// wire i). The result is the inputs layout Eval consumes — one K-bit
// plane per wire.
func PackInstances(instances [][]bool) ([]gmw.PackedShare, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("circuit: PackInstances needs at least one instance")
	}
	n := len(instances[0])
	k := len(instances)
	planes := make([]gmw.PackedShare, n)
	col := make([]bool, k)
	for i := 0; i < n; i++ {
		for j, inst := range instances {
			if len(inst) != n {
				return nil, fmt.Errorf("circuit: PackInstances instance %d has %d bits, want %d", j, len(inst), n)
			}
			col[j] = inst[i]
		}
		planes[i] = gmw.PackBools(col)
	}
	return planes, nil
}

// UnpackInstances inverts PackInstances: per-wire K-bit planes back to
// K per-instance bit vectors.
func UnpackInstances(planes []gmw.PackedShare) [][]bool {
	if len(planes) == 0 {
		return nil
	}
	k := planes[0].Len()
	out := make([][]bool, k)
	for j := range out {
		out[j] = make([]bool, len(planes))
	}
	for i := range planes {
		for j := 0; j < k; j++ {
			out[j][i] = planes[i].Bit(j)
		}
	}
	return out
}

// SharePlanes XOR-shares K instances of an input value: the owner
// passes its plaintext instance bits, the peer passes mine=false to
// hold the all-zero share. For threshold inputs (a value neither party
// knows, e.g. an XOR-split AES key) both parties pass their local
// share bits with mine=true — the shared value is the XOR.
func SharePlanes(instances [][]bool, bits int, mine bool) ([]gmw.PackedShare, error) {
	if !mine {
		if len(instances) == 0 {
			return nil, fmt.Errorf("circuit: SharePlanes needs the instance count on the non-owning side")
		}
		planes := make([]gmw.PackedShare, bits)
		for i := range planes {
			planes[i] = gmw.NewPacked(len(instances))
		}
		return planes, nil
	}
	for j, inst := range instances {
		if len(inst) != bits {
			return nil, fmt.Errorf("circuit: SharePlanes instance %d has %d bits, want %d", j, len(inst), bits)
		}
	}
	return PackInstances(instances)
}

// Eval runs the compiled schedule over the GMW engine: inputs is one
// K-bit plane per circuit input wire (every plane the same length K =
// the SIMD instance count), and the result is one K-bit plane per
// output wire. Each AND level of the schedule is one
// gmw.AndPackedMany exchange carrying levelANDs x K gates, so the
// exchange count equals the circuit's AND depth regardless of K.
//
// The whole budget (ANDs x K correlations, per direction) is
// preflighted against the party's pools before the first flight: an
// under-provisioned pool fails loudly up front on both sides instead
// of desyncing the peers mid-circuit.
func (prog *Program) Eval(p *gmw.Party, inputs []gmw.PackedShare, opts *EvalOpts) ([]gmw.PackedShare, error) {
	c := prog.Circ
	if len(inputs) != c.InputBits() {
		return nil, fmt.Errorf("circuit: Eval needs %d input planes, got %d", c.InputBits(), len(inputs))
	}
	k := 0
	if len(inputs) > 0 {
		k = inputs[0].Len()
	}
	if k == 0 {
		return nil, fmt.Errorf("circuit: Eval needs at least one packed instance")
	}
	for i := range inputs {
		if inputs[i].Len() != k {
			return nil, fmt.Errorf("circuit: Eval input plane %d has %d instances, want %d", i, inputs[i].Len(), k)
		}
	}
	if err := p.Preflight(prog.Budget(k)); err != nil {
		return nil, fmt.Errorf("circuit: %w", err)
	}

	var tr *obs.Tracer
	tid := 1
	if opts != nil {
		tr = opts.Trace
		if opts.TID != 0 {
			tid = opts.TID
		}
	}

	// Constant planes: EQ gates share the two values.
	ones := make([]bool, k)
	for i := range ones {
		ones[i] = true
	}
	constPlane := [2]gmw.PackedShare{gmw.NewPacked(k), p.NewPublicPacked(ones)}

	regs := make([]gmw.PackedShare, prog.Slots)
	for i, s := range prog.InputSlots {
		if s >= 0 {
			regs[s] = inputs[i]
		}
	}

	var pairs [][2]gmw.PackedShare
	for li := range prog.Levels {
		lv := &prog.Levels[li]
		sp := tr.Span("circuit.level", "circuit", tid)
		for i := range lv.Pre {
			op := &lv.Pre[i]
			switch op.Op {
			case XOR:
				x, err := gmw.XorPacked(regs[op.A], regs[op.B])
				if err != nil {
					return nil, fmt.Errorf("circuit: level %d: %w", li, err)
				}
				regs[op.D] = x
			case INV:
				regs[op.D] = p.NotPacked(regs[op.A])
			case EQW:
				regs[op.D] = regs[op.A]
			case EQ:
				regs[op.D] = constPlane[op.A]
			}
		}
		if len(lv.AndA) > 0 {
			pairs = pairs[:0]
			for i := range lv.AndA {
				pairs = append(pairs, [2]gmw.PackedShare{regs[lv.AndA[i]], regs[lv.AndB[i]]})
			}
			outs, err := p.AndPackedMany(pairs)
			if err != nil {
				return nil, fmt.Errorf("circuit: level %d exchange: %w", li, err)
			}
			for i := range outs {
				regs[lv.AndD[i]] = outs[i]
			}
		}
		if sp.Live() {
			sp.EndArgs(map[string]any{
				"level":     li,
				"ands":      len(lv.AndA) * k,
				"local_ops": len(lv.Pre),
			})
		}
	}

	out := make([]gmw.PackedShare, len(prog.OutputSlots))
	for i, s := range prog.OutputSlots {
		out[i] = regs[s]
	}
	return out, nil
}

// Reveal opens output planes to both parties and unpacks them into K
// per-instance output bit vectors — the convenience tail of a
// Compile/Eval pipeline. One exchange opens all planes.
func Reveal(p *gmw.Party, planes []gmw.PackedShare) ([][]bool, error) {
	if len(planes) == 0 {
		return nil, nil
	}
	vals, err := p.RevealPlanes(planes)
	if err != nil {
		return nil, err
	}
	return UnpackInstances(vals), nil
}
