// Private AES / two-party threshold encryption over real TCP.
//
// The AES-128 key is XOR-split between two parties — K = kA ^ kB,
// neither side ever holds K — and party A additionally holds the
// plaintext blocks. The parties jointly evaluate the AES-128 circuit
// (key schedule included, so the split key enters the circuit as
// shares) under GMW, and both learn only the ciphertexts.
// This is the classic distributed-HSM / threshold-signing workload:
// no single machine is a key-theft target.
//
// Four blocks are encrypted in ONE evaluation: the circuit frontend
// packs K independent instances across the engine's word lanes, so
// the exchange count stays at the circuit's AND depth (40) no matter
// how many blocks ride along. The two parties run as goroutines
// connected by a real TCP loopback socket.
//
//	go run ./examples/private-aes
package main

import (
	"bytes"
	"crypto/aes"
	"fmt"
	"log"
	"net"

	"ironman"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/gmw"
)

// blocks is the SIMD instance count: plaintext blocks encrypted per
// evaluation.
const blocks = 4

func main() {
	prog, err := circuit.Compile(circuit.AES128())
	if err != nil {
		log.Fatal(err)
	}

	// Demo inputs: the key shares XOR to K, only ever reconstructed
	// here in main for the final cross-check.
	var kA, kB [16]byte
	for i := range kA {
		kA[i] = byte(0x5a + 13*i)
		kB[i] = byte(0xc3 ^ 7*i)
	}
	pts := make([][]byte, blocks)
	for k := range pts {
		pts[k] = make([]byte, 16)
		for i := range pts[k] {
			pts[k][i] = byte(17*k + 3*i + 1)
		}
	}

	// Each OT direction needs one correlation stream; a local dealer
	// stands in for the two opposite-role Ferret sessions (see
	// examples/millionaires for the full Extend pipeline).
	budget := prog.ANDs * blocks
	sAB, rAB, err := cot.RandomPools(budget)
	if err != nil {
		log.Fatal(err)
	}
	sBA, rBA, err := cot.RandomPools(budget)
	if err != nil {
		log.Fatal(err)
	}

	// A real TCP loopback link between the two parties.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	connB := make(chan ironman.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		connB <- ironman.NewTCPConn(nc)
	}()
	ncA, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	connA := ironman.NewTCPConn(ncA)

	type result struct {
		cts  [][]bool
		wire int64
	}
	resA := make(chan result, 1)
	go func() { // party A: plaintexts + key share kA
		party, err := gmw.NewParty(connA, sAB, rBA, true)
		if err != nil {
			log.Fatal(err)
		}
		base := connA.Stats().TotalBytes()
		ptBits := make([][]bool, blocks)
		keyBits := make([][]bool, blocks)
		for k := range ptBits {
			ptBits[k] = circuit.BytesBits(pts[k])
			keyBits[k] = circuit.BytesBits(kA[:]) // same share every instance
		}
		ptPlanes, err := circuit.SharePlanes(ptBits, 128, true)
		if err != nil {
			log.Fatal(err)
		}
		// Threshold input: BOTH parties pass their key share with
		// mine=true; the circuit sees the XOR, i.e. K itself.
		keyPlanes, err := circuit.SharePlanes(keyBits, 128, true)
		if err != nil {
			log.Fatal(err)
		}
		out, err := prog.Eval(party, append(ptPlanes, keyPlanes...), nil)
		if err != nil {
			log.Fatal(err)
		}
		cts, err := circuit.Reveal(party, out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("party A: %d AND gates in %d exchanges\n", party.ANDGates, party.Exchanges)
		resA <- result{cts, connA.Stats().TotalBytes() - base}
	}()

	// Party B: no plaintext (zero shares), key share kB.
	party, err := gmw.NewParty(<-connB, sBA, rAB, false)
	if err != nil {
		log.Fatal(err)
	}
	ptPlanes, err := circuit.SharePlanes(make([][]bool, blocks), 128, false)
	if err != nil {
		log.Fatal(err)
	}
	keyBits := make([][]bool, blocks)
	for k := range keyBits {
		keyBits[k] = circuit.BytesBits(kB[:])
	}
	keyPlanes, err := circuit.SharePlanes(keyBits, 128, true)
	if err != nil {
		log.Fatal(err)
	}
	out, err := prog.Eval(party, append(ptPlanes, keyPlanes...), nil)
	if err != nil {
		log.Fatal(err)
	}
	ctsB, err := circuit.Reveal(party, out)
	if err != nil {
		log.Fatal(err)
	}
	ra := <-resA

	// Cross-check: reconstruct K (demo only!) and compare both
	// parties' opened ciphertexts against crypto/aes.
	var key [16]byte
	for i := range key {
		key[i] = kA[i] ^ kB[i]
	}
	cipher, err := aes.NewCipher(key[:])
	if err != nil {
		log.Fatal(err)
	}
	for k := range pts {
		want := make([]byte, 16)
		cipher.Encrypt(want, pts[k])
		gotA := circuit.BitsBytes(ra.cts[k])
		gotB := circuit.BitsBytes(ctsB[k])
		if !bytes.Equal(gotA, want) || !bytes.Equal(gotB, want) {
			log.Fatalf("block %d: threshold ciphertext mismatch", k)
		}
		fmt.Printf("block %d: %x\n", k, gotA)
	}
	fmt.Printf("%d blocks, %d wire bytes over TCP, key never reconstructed inside the protocol\n",
		blocks, ra.wire)
}
