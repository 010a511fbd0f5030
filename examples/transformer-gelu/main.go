// Transformer nonlinear budget: size the OT preprocessing a Bolt-style
// private BERT-Base inference needs for its GELU/Softmax/LayerNorm
// layers (§2.2, Figure 15 of the Ironman paper), generate a slice of
// that budget with the real protocol, and then evaluate one GELU-row
// sign layer with the real bitsliced GMW engine — the online nonlinear
// phase those correlations exist to power.
//
//	go run ./examples/transformer-gelu
package main

import (
	"fmt"
	"log"
	"time"

	"ironman"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/ppml"
	"ironman/internal/transport"
)

func main() {
	model := ppml.BERTBase
	fw := ppml.Bolt

	fmt.Printf("Model %s under %s:\n", model.Name, fw.Name)
	for _, op := range []ppml.Op{ppml.GELU, ppml.Softmax, ppml.LayerNorm} {
		fmt.Printf("  %-10s %8.1f M elements\n", op, float64(model.Elems[op])/1e6)
	}
	totalOTs := fw.OTCount(model)
	fmt.Printf("  -> %0.2f G COT correlations to preprocess\n", float64(totalOTs)/1e9)

	// Project preprocessing time on the two backends.
	cpuB := ppml.DefaultCPUBaseline()
	ironB := ppml.DefaultIronman()
	cpuSec := cpuB.Seconds(totalOTs)
	ironSec := ironB.Seconds(totalOTs)
	fmt.Printf("  CPU backend:     %8.1f s\n", cpuSec)
	fmt.Printf("  Ironman backend: %8.1f s  (%.1fx faster)\n", ironSec, cpuSec/ironSec)

	// Now actually run a slice of that budget with the real protocol:
	// one GELU activation row (3072 elements x OTs/elem).
	perRow := int(float64(3072) * fw.Costs[ppml.GELU].OTs)
	params, err := ironman.ParamsByName("2^20")
	if err != nil {
		log.Fatal(err)
	}
	connS, connR := ironman.Pipe()
	delta := ironman.RandomDelta()
	s, r, err := ironman.NewDealtPair(connS, connR, delta, params, ironman.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	type sres struct {
		z   []ironman.Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		z, err := s.COTs(perRow)
		ch <- sres{z, err}
	}()
	bits, blocks, err := r.COTs(perRow)
	if err != nil {
		log.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		log.Fatal(sr.err)
	}
	if err := ironman.VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d real COTs (one GELU row) in %v\n", perRow, time.Since(start))

	// Online phase: the comparison+mux at the heart of every
	// ReLU/GELU-style nonlinearity, evaluated with the bitsliced GMW
	// engine over one activation row: element-wise max of two private
	// rows. One batched parallel-prefix comparison handles all 3072
	// elements in O(log w) OT exchanges, then one MuxVec selects.
	const elems, width = 3072, 16
	maxLayer(elems, width)
}

// maxLayer runs GreaterThanVec + MuxVec (the compare+select pair
// modeled by ppml.GMWReLUCost) over two private activation rows and
// reports the measured wire cost next to the model.
func maxLayer(elems, width int) {
	modeled := ppml.GMWReLUCost(int64(elems), width)
	budget := int(modeled.ANDGates) // one COT per AND gate per direction

	// A dealer stands in for two role-switched Ferret instances (as in
	// examples/millionaires).
	connA, connB := transport.Pipe()
	sAB, rAB, err := cot.RandomPools(budget)
	if err != nil {
		log.Fatal(err)
	}
	sBA, rBA, err := cot.RandomPools(budget)
	if err != nil {
		log.Fatal(err)
	}

	// Fixed-point activation rows, one private to each party.
	xs := make([]uint64, elems)
	ys := make([]uint64, elems)
	for i := range xs {
		xs[i] = uint64((i*2654435761 + 12345) % (1 << width))
		ys[i] = uint64((i*1013904223 + 98765) % (1 << width))
	}

	start := time.Now()
	type res struct {
		vals []uint64
		p    *gmw.Party
		err  error
	}
	ch := make(chan res, 1)
	eval := func(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) res {
		p, err := gmw.NewParty(conn, out, in, first)
		if err != nil {
			return res{err: err}
		}
		x := p.NewPrivateVec(xs, width, first)
		y := p.NewPrivateVec(ys, width, !first)
		gt, err := p.GreaterThanVec(x, y)
		if err != nil {
			return res{err: err}
		}
		max, err := p.MuxVec(gt, x, y)
		if err != nil {
			return res{err: err}
		}
		vals, err := p.RevealVec(max)
		return res{vals: vals, p: p, err: err}
	}
	go func() { ch <- eval(connA, sAB, rBA, true) }()
	rb := eval(connB, sBA, rAB, false)
	if rb.err != nil {
		log.Fatal(rb.err)
	}
	ra := <-ch
	if ra.err != nil {
		log.Fatal(ra.err)
	}
	elapsed := time.Since(start)

	for i, v := range ra.vals {
		want := max(xs[i], ys[i])
		if v != want || rb.vals[i] != want {
			log.Fatalf("max layer wrong at element %d: %x/%x != %x", i, v, rb.vals[i], want)
		}
	}
	stats := connA.Stats()
	fmt.Printf("GMW max layer over %d activations (width %d): %d AND gates, %d exchanges, %v\n",
		elems, width, ra.p.ANDGates, ra.p.Exchanges, elapsed)
	fmt.Printf("  modeled: %d ANDs, %d exchanges, %.2f B/AND — measured %.2f B/AND\n",
		modeled.ANDGates, modeled.Exchanges, modeled.BytesPerAND(),
		float64(stats.TotalBytes())/float64(ra.p.ANDGates))
}
