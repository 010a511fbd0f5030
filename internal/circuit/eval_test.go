package circuit_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/transport"
)

// tcpPair opens a real TCP loopback link between the two parties —
// the acceptance runs demand real sockets under -race, not just the
// in-process pipe.
func tcpPair(t *testing.T) (transport.Conn, transport.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		nc  net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		nc, err := ln.Accept()
		ch <- accepted{nc, err}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	a, b := transport.NewTCP(nc), transport.NewTCP(acc.nc)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

// newParties assembles two GMW parties over the given link with
// freshly dealt pools of the given per-direction budget.
func newParties(t *testing.T, connA, connB transport.Conn, budget int) (*gmw.Party, *gmw.Party) {
	t.Helper()
	sAB, rAB, err := cot.RandomPools(budget)
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := cot.RandomPools(budget)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		p   *gmw.Party
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := gmw.NewParty(connA, sAB, rBA, true)
		ch <- res{p, err}
	}()
	b, err := gmw.NewParty(connB, sBA, rAB, false)
	if err != nil {
		t.Fatal(err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	return ra.p, b
}

// splitPlanes packs each party's input planes for k instances: party A
// owns even-indexed input values, B odd (the peer holds zero shares).
func splitPlanes(t *testing.T, c *circuit.Circuit, insts [][][]bool, partyA bool) []gmw.PackedShare {
	t.Helper()
	k := len(insts)
	planes := make([]gmw.PackedShare, 0, c.InputBits())
	for v, width := range c.Inputs {
		mine := (v%2 == 0) == partyA
		vals := make([][]bool, k)
		if mine {
			for i := range vals {
				vals[i] = insts[i][v]
			}
		}
		ps, err := circuit.SharePlanes(vals, width, mine)
		if err != nil {
			t.Fatal(err)
		}
		planes = append(planes, ps...)
	}
	return planes
}

// secureEval drives both parties through Eval+Reveal and returns A's
// opened instance outputs, plus A's exchange count and endpoint wire
// bytes for the evaluation (reveal excluded).
func secureEval(t *testing.T, prog *circuit.Program, a, b *gmw.Party, connA transport.Conn, inA, inB []gmw.PackedShare) ([][]bool, int, int64) {
	t.Helper()
	base := connA.Stats().TotalBytes()
	preEx := a.Exchanges
	type out struct {
		vals [][]bool
		ex   int
		wire int64
		err  error
	}
	ch := make(chan out, 1)
	go func() {
		var o out
		planes, err := prog.Eval(a, inA, nil)
		if err != nil {
			o.err = err
			ch <- o
			return
		}
		// Snapshot before Reveal: the exchange protocol is fully
		// synchronous at this endpoint once Eval returns.
		o.wire = connA.Stats().TotalBytes() - base
		o.ex = a.Exchanges - preEx
		o.vals, o.err = circuit.Reveal(a, planes)
		ch <- o
	}()
	planesB, err := prog.Eval(b, inB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := circuit.Reveal(b, planesB); err != nil {
		t.Fatal(err)
	}
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.vals, o.ex, o.wire
}

// flatOutputs flattens EvalPlain's per-value outputs into one bit
// vector for comparison against an instance's opened planes.
func flatOutputs(vals [][]bool) []bool {
	var flat []bool
	for _, v := range vals {
		flat = append(flat, v...)
	}
	return flat
}

// randCircuit generates a random valid circuit: gate outputs are
// assigned sequentially (so the netlist is topological by
// construction) and the declared outputs are the trailing wires.
func randCircuit(rng *rand.Rand) *circuit.Circuit {
	nin := 1 + rng.Intn(3)
	inputs := make([]int, nin)
	total := 0
	for i := range inputs {
		inputs[i] = 1 + rng.Intn(4)
		total += inputs[i]
	}
	next := int32(total)
	pick := func() int32 { return int32(rng.Intn(int(next))) }
	var gates []circuit.Gate
	ngates := 5 + rng.Intn(30)
	for g := 0; g < ngates; g++ {
		switch rng.Intn(6) {
		case 0:
			gates = append(gates, circuit.Gate{Op: circuit.AND, In: []int32{pick(), pick()}, Out: []int32{next}})
			next++
		case 1:
			gates = append(gates, circuit.Gate{Op: circuit.XOR, In: []int32{pick(), pick()}, Out: []int32{next}})
			next++
		case 2:
			gates = append(gates, circuit.Gate{Op: circuit.INV, In: []int32{pick()}, Out: []int32{next}})
			next++
		case 3:
			gates = append(gates, circuit.Gate{Op: circuit.EQ, In: []int32{int32(rng.Intn(2))}, Out: []int32{next}})
			next++
		case 4:
			gates = append(gates, circuit.Gate{Op: circuit.EQW, In: []int32{pick()}, Out: []int32{next}})
			next++
		case 5:
			k := 1 + rng.Intn(3)
			in := make([]int32, 2*k)
			outs := make([]int32, k)
			for i := range in {
				in[i] = pick()
			}
			for i := range outs {
				outs[i] = next
				next++
			}
			gates = append(gates, circuit.Gate{Op: circuit.MAND, In: in, Out: outs})
		}
	}
	return &circuit.Circuit{
		Gates:   gates,
		Wires:   int(next),
		Inputs:  inputs,
		Outputs: []int{1 + rng.Intn(3)},
	}
}

// TestRandomCircuitsSecureVsPlain fuzzes the compiler and evaluator:
// random netlists (all six ops, MAND included) are compiled, run
// SIMD-packed over real TCP, and every instance's outputs are compared
// against the plaintext reference evaluator.
func TestRandomCircuitsSecureVsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1507))
	for iter := 0; iter < 12; iter++ {
		c := randCircuit(rng)
		prog, err := circuit.Compile(c)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		k := 1 + rng.Intn(5)
		insts := make([][][]bool, k)
		for i := range insts {
			vals := make([][]bool, len(c.Inputs))
			for v, width := range c.Inputs {
				bits := make([]bool, width)
				for j := range bits {
					bits[j] = rng.Intn(2) == 1
				}
				vals[v] = bits
			}
			insts[i] = vals
		}
		connA, connB := tcpPair(t)
		a, b := newParties(t, connA, connB, prog.ANDs*k+1)
		outs, ex, _ := secureEval(t, prog, a, b, connA,
			splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
		if ex != prog.ANDLevels {
			t.Fatalf("iter %d: %d exchanges, want AND depth %d", iter, ex, prog.ANDLevels)
		}
		for i, inst := range insts {
			want, err := c.EvalPlain(inst)
			if err != nil {
				t.Fatal(err)
			}
			flat := flatOutputs(want)
			for j, bit := range outs[i] {
				if bit != flat[j] {
					t.Fatalf("iter %d instance %d: output bit %d = %v, want %v", iter, i, j, bit, flat[j])
				}
			}
		}
	}
}

// buildAdder32 is the SIMD workhorse circuit for the packing tests: a
// 32-bit adder from the Builder (Sklansky prefix network).
func buildAdder32(t *testing.T) (*circuit.Circuit, *circuit.Program) {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.Input(32)
	y := b.Input(32)
	c, err := b.Finish(b.Add(x, y))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := circuit.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, prog
}

// TestSIMDPackedVsSerial runs K instances packed across the word lanes
// and the same K instances serially (one lane each), byte-comparing
// the outputs. The packed run must finish in the circuit's AND depth
// worth of exchanges — 1/K of the serial total.
func TestSIMDPackedVsSerial(t *testing.T) {
	const k = 64
	c, prog := buildAdder32(t)
	rng := rand.New(rand.NewSource(0xadd32))
	insts := make([][][]bool, k)
	wantSum := make([]uint32, k)
	for i := range insts {
		x, y := rng.Uint32(), rng.Uint32()
		wantSum[i] = x + y
		insts[i] = [][]bool{
			circuit.Uint64Bits(uint64(x), 32),
			circuit.Uint64Bits(uint64(y), 32),
		}
	}

	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*k)
	packed, ex, _ := secureEval(t, prog, a, b, connA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	if ex != prog.ANDLevels {
		t.Fatalf("packed run: %d exchanges, want AND depth %d", ex, prog.ANDLevels)
	}

	serialEx := 0
	for i := 0; i < k; i++ {
		one := insts[i : i+1]
		connA, connB := tcpPair(t)
		a, b := newParties(t, connA, connB, prog.ANDs)
		out, ex, _ := secureEval(t, prog, a, b, connA,
			splitPlanes(t, c, one, true), splitPlanes(t, c, one, false))
		serialEx += ex
		if got, want := circuit.BitsBytes(out[0]), circuit.BitsBytes(packed[i]); !bytes.Equal(got, want) {
			t.Fatalf("instance %d: serial output %x, packed output %x", i, got, want)
		}
		if got := uint32(circuit.BitsUint64(out[0])); got != wantSum[i] {
			t.Fatalf("instance %d: sum %d, want %d", i, got, wantSum[i])
		}
	}
	if serialEx != k*prog.ANDLevels {
		t.Fatalf("serial runs took %d exchanges, want %d", serialEx, k*prog.ANDLevels)
	}
}

// recordingConn captures every frame one endpoint sends, so two runs
// can be compared transcript-for-transcript.
type recordingConn struct {
	transport.Conn
	log bytes.Buffer
}

func (c *recordingConn) Send(p []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	c.log.Write(hdr[:])
	c.log.Write(p)
	return c.Conn.Send(p)
}

// transcriptRun executes one fully deterministic packed evaluation —
// seeded parties, stream-dealt pools — and returns the opened outputs
// with both endpoints' wire transcripts.
func transcriptRun(t *testing.T, c *circuit.Circuit, prog *circuit.Program, insts [][][]bool) ([][]bool, []byte, []byte) {
	t.Helper()
	k := len(insts)
	connA, connB := tcpPair(t)
	recA := &recordingConn{Conn: connA}
	recB := &recordingConn{Conn: connB}
	sAB, rAB, err := cot.PoolsFromStream(aesprg.NewStream(block.New(0xa1, 0xa2)), block.New(0xd1, 0xd2), prog.ANDs*k)
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := cot.PoolsFromStream(aesprg.NewStream(block.New(0xb1, 0xb2)), block.New(0xd3, 0xd4), prog.ANDs*k)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		p   *gmw.Party
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := gmw.NewSeededParty(recA, sAB, rBA, true, block.New(0x51, 0x52))
		ch <- res{p, err}
	}()
	b, err := gmw.NewSeededParty(recB, sBA, rAB, false, block.New(0x53, 0x54))
	if err != nil {
		t.Fatal(err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	outs, _, _ := secureEval(t, prog, ra.p, b, recA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	return outs, recA.log.Bytes(), recB.log.Bytes()
}

// TestTranscriptDeterminism pins the whole stack: two identical seeded
// packed runs must produce byte-identical wire transcripts in both
// directions (and identical outputs). Any nondeterminism in the
// compiler's schedule, the packing layout, or the engine's wire format
// shows up here as a transcript diff.
func TestTranscriptDeterminism(t *testing.T) {
	c, prog := buildAdder32(t)
	rng := rand.New(rand.NewSource(0x7ea))
	const k = 8
	insts := make([][][]bool, k)
	for i := range insts {
		insts[i] = [][]bool{
			circuit.Uint64Bits(uint64(rng.Uint32()), 32),
			circuit.Uint64Bits(uint64(rng.Uint32()), 32),
		}
	}
	out1, wireA1, wireB1 := transcriptRun(t, c, prog, insts)
	out2, wireA2, wireB2 := transcriptRun(t, c, prog, insts)
	if len(wireA1) == 0 || len(wireB1) == 0 {
		t.Fatal("no traffic recorded")
	}
	if !bytes.Equal(wireA1, wireA2) {
		t.Fatalf("party A transcripts differ: %d vs %d bytes", len(wireA1), len(wireA2))
	}
	if !bytes.Equal(wireB1, wireB2) {
		t.Fatalf("party B transcripts differ: %d vs %d bytes", len(wireB1), len(wireB2))
	}
	for i := range out1 {
		if !bytes.Equal(circuit.BitsBytes(out1[i]), circuit.BitsBytes(out2[i])) {
			t.Fatalf("instance %d outputs differ across identical runs", i)
		}
	}
}

// TestPreflightBudget verifies the loud-failure contract: a pool one
// correlation short of the schedule's budget must fail before the
// first flight, with cot.ErrExhausted in the chain and zero bytes on
// the wire.
func TestPreflightBudget(t *testing.T) {
	c, prog := buildAdder32(t)
	const k = 4
	insts := make([][][]bool, k)
	for i := range insts {
		insts[i] = [][]bool{
			circuit.Uint64Bits(uint64(3*i+1), 32),
			circuit.Uint64Bits(uint64(5*i+2), 32),
		}
	}
	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*k-1)
	baseA := connA.Stats().TotalBytes()
	baseB := connB.Stats().TotalBytes()
	// Preflight fails locally on both sides: no goroutines needed, no
	// flights to deadlock on.
	if _, err := prog.Eval(a, splitPlanes(t, c, insts, true), nil); !errors.Is(err, cot.ErrExhausted) {
		t.Fatalf("party A: err = %v, want cot.ErrExhausted", err)
	}
	if _, err := prog.Eval(b, splitPlanes(t, c, insts, false), nil); !errors.Is(err, cot.ErrExhausted) {
		t.Fatalf("party B: err = %v, want cot.ErrExhausted", err)
	}
	if got := connA.Stats().TotalBytes(); got != baseA {
		t.Fatalf("party A moved %d bytes after failed preflight", got-baseA)
	}
	if got := connB.Stats().TotalBytes(); got != baseB {
		t.Fatalf("party B moved %d bytes after failed preflight", got-baseB)
	}
}

// TestCircuitCostExact cross-checks the circuit wire model against the
// measured gmw.Party counters and the transport byte delta: one
// exchange per AND level, each one n-instance 1-bit chosen-OT exchange
// per OT direction at cot.ChosenBytes(n, 1) bytes, must match to the
// byte. K=5 leaves most level batches at a non-multiple of 8 bits,
// exercising the per-level ceiling.
func TestCircuitCostExact(t *testing.T) {
	c, prog := buildAdder32(t)
	const k = 5
	var wantWire int64
	for _, lv := range prog.Levels {
		if n := len(lv.AndA); n > 0 {
			wantWire += 2 * int64(cot.ChosenBytes(n*k, 1))
		}
	}

	rng := rand.New(rand.NewSource(0xc057))
	insts := make([][][]bool, k)
	for i := range insts {
		insts[i] = [][]bool{
			circuit.Uint64Bits(uint64(rng.Uint32()), 32),
			circuit.Uint64Bits(uint64(rng.Uint32()), 32),
		}
	}
	connA, connB := tcpPair(t)
	a, b := newParties(t, connA, connB, prog.ANDs*k)
	preANDs := a.ANDGates
	_, ex, wire := secureEval(t, prog, a, b, connA,
		splitPlanes(t, c, insts, true), splitPlanes(t, c, insts, false))
	if ex != prog.ANDLevels {
		t.Fatalf("measured %d exchanges, want AND depth %d", ex, prog.ANDLevels)
	}
	if wire != wantWire {
		t.Fatalf("measured %d wire bytes, model says %d", wire, wantWire)
	}
	if got := a.ANDGates - preANDs; got != prog.ANDs*k {
		t.Fatalf("party counted %d AND gates, want %d", got, prog.ANDs*k)
	}
}
