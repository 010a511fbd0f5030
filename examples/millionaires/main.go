// Millionaires / private comparison: the building block of every ReLU
// in CrypTFlow2-style private inference (§2.2 of the Ironman paper).
//
// Two parties hold private 32-bit values x and y. Using GMW over
// XOR-shared bits — with every AND gate powered by OT correlations from
// two Ferret instances running in opposite directions (the paper's
// role-switching scenario, §5.2) — they learn only whether x > y. The
// comparator is the engine's parallel-prefix network: 1+ceil(log2 32)
// batched OT exchanges instead of one exchange per bit, with every
// exchange shipping bit-packed OT frames.
//
//	go run ./examples/millionaires
package main

import (
	"fmt"
	"log"

	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ferret"
	"ironman/internal/gmw"
	"ironman/internal/transport"
)

const bitWidth = 32

func main() {
	x := uint64(1_000_000) // party A's net worth
	y := uint64(999_999)   // party B's net worth

	// Each direction of AND cross terms needs its own COT stream:
	// A->B (A is OT sender) and B->A. In production both run Ferret
	// with swapped roles over the same link — exactly what the unified
	// Ironman-NMP unit accelerates. Here a dealer stands in for the
	// two Ferret initializations.
	params := ferret.TestParams(4000, 32, 256, 16)
	connA, connB := transport.Pipe()

	deltaAB := block.New(0xA, 0xB)
	sAB, rAB, err := ferret.DealPools(connA, connB, deltaAB, params, ferret.Options{})
	if err != nil {
		log.Fatal(err)
	}
	deltaBA := block.New(0xB, 0xA)
	sBA, rBA, err := ferret.DealPools(connB, connA, deltaBA, params, ferret.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Run one Extend per instance to materialize COT pools. Party A
	// drives its sender instance first while party B serves its
	// receiver side, then the roles flip — the protocol interleaving
	// the unified hardware unit handles without idling.
	poolsA := make(chan pools, 1)
	poolsB := make(chan pools, 1)
	go func() {
		out := extendSender(sAB)
		in := extendReceiver(rBA)
		poolsA <- pools{out: out, in: in}
	}()
	go func() {
		in := extendReceiver(rAB)
		out := extendSender(sBA)
		poolsB <- pools{out: out, in: in}
	}()
	pa, pb := <-poolsA, <-poolsB

	base := connA.Stats()

	// The NewParty handshake is interactive: both constructors (and
	// the protocol that follows) run concurrently, one per goroutine.
	resA := make(chan []bool, 1)
	go func() {
		partyA, err := gmw.NewParty(connA, pa.out, pa.in, true)
		if err != nil {
			log.Fatal(err)
		}
		xs := partyA.NewPrivateVec([]uint64{x}, bitWidth, true)
		ys := partyA.NewPrivateVec([]uint64{0}, bitWidth, false)
		gt, err := partyA.GreaterThanVec(xs, ys)
		if err != nil {
			log.Fatal(err)
		}
		open, err := partyA.RevealPacked(gt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("party A consumed %d AND gates (%d OTs) in %d batched exchanges\n",
			partyA.ANDGates, 2*partyA.ANDGates, partyA.Exchanges)
		resA <- open
	}()

	partyB, err := gmw.NewParty(connB, pb.out, pb.in, false)
	if err != nil {
		log.Fatal(err)
	}
	xsB := partyB.NewPrivateVec([]uint64{0}, bitWidth, false)
	ysB := partyB.NewPrivateVec([]uint64{y}, bitWidth, true)
	gtB, err := partyB.GreaterThanVec(xsB, ysB)
	if err != nil {
		log.Fatal(err)
	}
	openB, err := partyB.RevealPacked(gtB)
	if err != nil {
		log.Fatal(err)
	}
	openA := <-resA

	stats := connA.Stats()
	fmt.Printf("online phase: %d wire bytes, %d flights (comparator budget: %d exchanges)\n",
		stats.TotalBytes()-base.TotalBytes(), stats.Flights-base.Flights, gmw.ComparatorExchanges(bitWidth))
	fmt.Printf("x > y: A sees %v, B sees %v (truth: %v)\n", openA[0], openB[0], x > y)
	if openA[0] != (x > y) || openB[0] != (x > y) {
		log.Fatal("comparison result wrong")
	}
}

type pools struct {
	out *cot.SenderPool
	in  *cot.ReceiverPool
}

// extendSender and extendReceiver run one Ferret iteration each and
// wrap the outputs as pools. The two directions run concurrently (the
// goroutines in main), which is the parallel dual-execution pattern of
// §1 the unified architecture exists for.
func extendSender(s *ferret.Sender) *cot.SenderPool {
	z, err := s.Extend()
	if err != nil {
		log.Fatal(err)
	}
	return cot.NewSenderPool(s.Delta(), z)
}

func extendReceiver(r *ferret.Receiver) *cot.ReceiverPool {
	bits, y, err := r.Extend()
	if err != nil {
		log.Fatal(err)
	}
	pool, err := cot.NewReceiverPool(bits, y)
	if err != nil {
		log.Fatal(err)
	}
	return pool
}
