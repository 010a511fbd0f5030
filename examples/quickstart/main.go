// Quickstart: generate correlated OTs with the Ironman library, spend
// a few on chosen-message OTs, and verify everything (exits non-zero
// on a wrong result).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"ironman"
)

func main() {
	// Two in-process endpoints; real deployments use NewTCPConn.
	connS, connR := ironman.Pipe()

	params, err := ironman.ParamsByName("2^20")
	if err != nil {
		log.Fatal(err)
	}
	delta := ironman.RandomDelta()

	// NewDealtPair skips the base-OT init (single-process demo); use
	// NewSender/NewReceiver across a network for the real handshake.
	sender, receiver, err := ironman.NewDealtPair(connS, connR, delta, params, ironman.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Draw one million correlated OTs.
	const n = 1 << 20
	start := time.Now()
	type sres struct {
		z   []ironman.Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		z, err := sender.COTs(n)
		ch <- sres{z, err}
	}()
	bits, blocks, err := receiver.COTs(n)
	if err != nil {
		log.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		log.Fatal(sr.err)
	}
	elapsed := time.Since(start)

	if err := ironman.VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated and verified %d COTs in %v (%.2f M COT/s)\n",
		n, elapsed, float64(n)/elapsed.Seconds()/1e6)
	fmt.Printf("sender traffic: %v\n", connS.Stats())

	// Chosen-message OT on top: the receiver picks message 1 of pair 0
	// and message 0 of pair 1.
	msgs := [][2]ironman.Block{
		{blockOf(100), blockOf(101)},
		{blockOf(200), blockOf(201)},
	}
	choices := []bool{true, false}
	errCh := make(chan error, 1)
	go func() { errCh <- sender.SendChosen(connS, msgs) }()
	got, err := receiver.ReceiveChosen(connR, choices)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-errCh; err != nil {
		log.Fatal(err)
	}
	if got[0] != msgs[0][1] || got[1] != msgs[1][0] {
		log.Fatalf("chosen OT results: %v %v, want %v %v", got[0], got[1], msgs[0][1], msgs[1][0])
	}
	fmt.Printf("chosen OT results verified: %v %v\n", got[0], got[1])
}

func blockOf(v uint64) ironman.Block {
	var b ironman.Block
	b.Lo = v
	return b
}
