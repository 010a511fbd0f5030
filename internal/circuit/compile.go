package circuit

import (
	"fmt"
	"math"

	"ironman/internal/gmw"
)

// LocalOp is a free (non-interactive) gate in the compiled schedule,
// operating on register slots instead of wires. For EQ, A is the
// constant bit (0 or 1) rather than a slot.
type LocalOp struct {
	Op Op
	A  int32 // first operand slot (or EQ constant)
	B  int32 // second operand slot (XOR only)
	D  int32 // destination slot
}

// Level is one rung of the compiled schedule: the local gates that
// become ready after the previous exchange, followed by one batched
// AND exchange. AndA/AndB/AndD are parallel slot arrays — pair i is
// AndA[i] AND AndB[i] -> AndD[i] — and the whole batch ships as ONE
// gmw.AndPackedMany call. The final level of every program has an
// empty batch (the locals that follow the last exchange).
type Level struct {
	Pre  []LocalOp
	AndA []int32
	AndB []int32
	AndD []int32
}

// Program is a compiled circuit: a level schedule over a recycled
// register file. Slots is the register count — the maximum number of
// simultaneously live wires, not the total wire count — so evaluating
// a multi-hundred-thousand-wire circuit holds only the live frontier
// in memory.
type Program struct {
	Circ *Circuit
	// Levels is the schedule; len(Levels) == ANDLevels+1.
	Levels []Level
	// Slots is the register-file size (max live wires).
	Slots int
	// ANDs is the total AND gate count per instance.
	ANDs int
	// ANDLevels is the AND depth: the number of batched exchanges one
	// evaluation issues, regardless of instance count.
	ANDLevels int
	// InputSlots maps each input wire (in wire order) to its register,
	// or -1 if the circuit never reads that input.
	InputSlots []int32
	// OutputSlots maps each output wire (in wire order) to the
	// register holding it after the last level.
	OutputSlots []int32
}

// Budget returns the gmw pool budget one evaluation of instances
// packed instances consumes — the preflight handed to
// gmw.Party.Preflight before the first flight.
func (p *Program) Budget(instances int) gmw.Budget {
	return gmw.Budget{ANDGates: p.ANDs * instances, Exchanges: p.ANDLevels}
}

// lastReadNever marks a wire no instruction ever reads.
const lastReadNever = -1

// Compile levels the gate DAG and allocates wire slots.
//
// Leveling: every wire gets the AND depth at which it becomes
// available — inputs and constants at 0, XOR/INV/EQW outputs at the
// max of their operands, AND outputs one deeper. All AND gates whose
// output lands at depth L+1 read only wires of depth <= L, so they are
// independent and batch into one exchange; the schedule interleaves
// each batch with the local gates that become computable before it.
//
// Slot allocation: instructions execute in schedule order, and a
// liveness pass records each wire's last read (circuit outputs are
// read at infinity). A wire's register returns to the free list at its
// last read, so peak register count is the maximum live-wire frontier.
// Within an AND batch all operands are read before any output is
// written (gmw.AndPackedMany concatenates its operand bits before
// computing), so a register freed by a batch's read can be reassigned
// to one of the same batch's outputs.
func Compile(c *Circuit) (*Program, error) {
	if c.Wires <= 0 || len(c.Inputs) == 0 {
		return nil, fmt.Errorf("circuit: Compile: circuit has no inputs")
	}
	inBits := c.InputBits()

	// Pass 1: wire levels and the AND depth.
	level := make([]int32, c.Wires)
	gateLevel := make([]int32, len(c.Gates)) // AND/MAND: exchange level; locals: availability level
	depth := int32(0)
	for gi := range c.Gates {
		g := &c.Gates[gi]
		switch g.Op {
		case EQ:
			level[g.Out[0]] = 0
		case XOR:
			l := max32(level[g.In[0]], level[g.In[1]])
			level[g.Out[0]] = l
			gateLevel[gi] = l
		case INV, EQW:
			l := level[g.In[0]]
			level[g.Out[0]] = l
			gateLevel[gi] = l
		case AND:
			l := max32(level[g.In[0]], level[g.In[1]]) + 1
			level[g.Out[0]] = l
			gateLevel[gi] = l
			depth = max32(depth, l)
		case MAND:
			// Each constituent AND levels independently; the gate's
			// outputs may land at different depths.
			k := len(g.Out)
			for j := 0; j < k; j++ {
				l := max32(level[g.In[j]], level[g.In[k+j]]) + 1
				level[g.Out[j]] = l
				depth = max32(depth, l)
			}
		default:
			return nil, fmt.Errorf("circuit: Compile: unknown op %v", g.Op)
		}
	}

	// Pass 2: schedule gates into levels. Locals keep their relative
	// file order inside a level (the parser's topological order makes
	// that dependency-safe); AND gates batch by output depth.
	type andRef struct{ a, b, out int32 }
	locals := make([][]int, depth+1)     // gate indices, by availability level
	batches := make([][]andRef, depth+1) // batches[L] produces the depth-L wires
	for gi := range c.Gates {
		g := &c.Gates[gi]
		switch g.Op {
		case AND:
			l := level[g.Out[0]]
			batches[l] = append(batches[l], andRef{g.In[0], g.In[1], g.Out[0]})
		case MAND:
			k := len(g.Out)
			for j := 0; j < k; j++ {
				l := level[g.Out[j]]
				batches[l] = append(batches[l], andRef{g.In[j], g.In[int32(k+j)], g.Out[j]})
			}
		default:
			locals[gateLevel[gi]] = append(locals[gateLevel[gi]], gi)
		}
	}

	// Pass 3: liveness. Positions: 0 = input placement, then each
	// local op and each AND batch takes one position in schedule order.
	lastRead := make([]int, c.Wires)
	for i := range lastRead {
		lastRead[i] = lastReadNever
	}
	pos := 0
	walk := func(visit func(l int32, gi int, batchPos bool, p int)) {
		pos = 0
		for l := int32(0); l <= depth; l++ {
			if l > 0 {
				pos++
				visit(l, -1, true, pos) // batch producing depth l runs before depth-l locals
			}
			for _, gi := range locals[l] {
				pos++
				visit(l, gi, false, pos)
			}
		}
	}
	walk(func(l int32, gi int, batch bool, p int) {
		if batch {
			for _, ar := range batches[l] {
				lastRead[ar.a] = p
				lastRead[ar.b] = p
			}
			return
		}
		g := &c.Gates[gi]
		if g.Op == EQ {
			return
		}
		for _, in := range g.In {
			lastRead[in] = p
		}
	})
	base := c.outputBase()
	for w := base; w < c.Wires; w++ {
		lastRead[w] = math.MaxInt
	}

	// Pass 4: allocation + emission.
	slotOf := make([]int32, c.Wires)
	for i := range slotOf {
		slotOf[i] = -1
	}
	var free []int32
	next := int32(0)
	alloc := func() int32 {
		if n := len(free); n > 0 {
			s := free[n-1]
			free = free[:n-1]
			return s
		}
		next++
		return next - 1
	}
	// release frees wire w's slot if position p was its last read.
	release := func(w int32, p int) {
		if lastRead[w] == p && slotOf[w] >= 0 {
			free = append(free, slotOf[w])
			slotOf[w] = -1
		}
	}

	prog := &Program{
		Circ:        c,
		ANDs:        c.NumANDs(),
		ANDLevels:   int(depth),
		Levels:      make([]Level, depth+1),
		InputSlots:  make([]int32, inBits),
		OutputSlots: make([]int32, c.OutputBits()),
	}
	for w := 0; w < inBits; w++ {
		if lastRead[w] == lastReadNever {
			prog.InputSlots[w] = -1
			continue
		}
		slotOf[w] = alloc()
		prog.InputSlots[w] = slotOf[w]
	}

	walk(func(l int32, gi int, batch bool, p int) {
		if batch {
			// The batch producing depth-l wires closes Levels[l-1]: the
			// evaluator runs a level's locals first, then its exchange,
			// and depth-l locals may read these outputs.
			lv := &prog.Levels[l-1]
			refs := batches[l]
			lv.AndA = make([]int32, len(refs))
			lv.AndB = make([]int32, len(refs))
			lv.AndD = make([]int32, len(refs))
			for i, ar := range refs {
				lv.AndA[i] = slotOf[ar.a]
				lv.AndB[i] = slotOf[ar.b]
			}
			for _, ar := range refs {
				release(ar.a, p)
				release(ar.b, p)
			}
			for i, ar := range refs {
				slotOf[ar.out] = alloc()
				lv.AndD[i] = slotOf[ar.out]
			}
			return
		}
		g := &c.Gates[gi]
		op := LocalOp{Op: g.Op}
		switch g.Op {
		case XOR:
			op.A, op.B = slotOf[g.In[0]], slotOf[g.In[1]]
			release(g.In[0], p)
			release(g.In[1], p)
		case INV, EQW:
			op.A = slotOf[g.In[0]]
			release(g.In[0], p)
		case EQ:
			op.A = g.In[0]
		}
		slotOf[g.Out[0]] = alloc()
		op.D = slotOf[g.Out[0]]
		prog.Levels[l].Pre = append(prog.Levels[l].Pre, op)
	})

	for i := range prog.OutputSlots {
		prog.OutputSlots[i] = slotOf[base+i]
	}
	prog.Slots = int(next)
	return prog, nil
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
