// Role switching: both parties act as OT sender in one direction and
// receiver in the other, concurrently over the same link — the workload
// pattern of §5.2 that motivates the unified Ironman-NMP unit, and the
// PrivQuant-style MatMul communication optimization of Figure 16.
//
//	go run ./examples/roleswitch
package main

import (
	"fmt"
	"log"
	"time"

	"ironman"
	"ironman/internal/ppml"
	"ironman/internal/simnet"
)

func main() {
	params, err := ironman.ParamsByName("2^20")
	if err != nil {
		log.Fatal(err)
	}
	opts := ironman.DefaultOptions()

	// Direction 1: A sends, B receives. Direction 2: roles swapped.
	// Two connection pairs model the duplex link.
	a1, b1 := ironman.Pipe()
	a2, b2 := ironman.Pipe()
	dAB := ironman.RandomDelta()
	dBA := ironman.RandomDelta()
	sAB, rAB, err := ironman.NewDealtPair(a1, b1, dAB, params, opts)
	if err != nil {
		log.Fatal(err)
	}
	sBA, rBA, err := ironman.NewDealtPair(b2, a2, dBA, params, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Party A runs sender(AB) and receiver(BA) concurrently; party B
	// the mirror image. A unified accelerator serves both roles with
	// one XOR-tree datapath (Figure 10).
	const n = 1 << 18
	start := time.Now()
	errs := make(chan error, 4)
	var zAB, zBA, yAB, yBA []ironman.Block
	var xAB, xBA []bool
	go func() { // party A, sender role
		var err error
		zAB, err = sAB.COTs(n)
		errs <- err
	}()
	go func() { // party A, receiver role
		var err error
		xBA, yBA, err = rBA.COTs(n)
		errs <- err
	}()
	go func() { // party B, receiver role
		var err error
		xAB, yAB, err = rAB.COTs(n)
		errs <- err
	}()
	go func() { // party B, sender role
		var err error
		zBA, err = sBA.COTs(n)
		errs <- err
	}()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("both directions produced %d COTs each in %v (parallel role switch)\n",
		n, time.Since(start))
	// Demo only: a real receiver never sees the sender's Δ.
	if err := ironman.VerifyCOTs(dAB, zAB, xAB, yAB); err != nil {
		log.Fatalf("direction A->B: %v", err)
	}
	if err := ironman.VerifyCOTs(dBA, zBA, xBA, yBA); err != nil {
		log.Fatalf("direction B->A: %v", err)
	}
	fmt.Println("both directions verified")

	// Figure 16: the communication effect of role switching on
	// OT-based MatMul.
	fmt.Println("\nMatMul communication (Figure 16 model):")
	for _, mm := range []ppml.MatMul{{M: 64, K: 768, N: 768}, {M: 64, K: 768, N: 64}, {M: 64, K: 4096, N: 64}} {
		without := mm.CommBytes(false)
		with := mm.CommBytes(true)
		fmt.Printf("  dims (%4d,%4d,%4d): %6.2f MB -> %6.2f MB (%.1fx), latency %.2f ms -> %.2f ms (%.2fx)\n",
			mm.M, mm.K, mm.N,
			float64(without)/1e6, float64(with)/1e6, float64(without)/float64(with),
			mm.Latency(simnet.LAN, false)*1e3, mm.Latency(simnet.LAN, true)*1e3,
			mm.Latency(simnet.LAN, false)/mm.Latency(simnet.LAN, true))
	}
}
