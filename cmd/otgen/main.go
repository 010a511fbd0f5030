// Command otgen runs the real PCG-style OT-extension protocol and
// reports throughput and traffic. It can run both parties in one
// process (-inproc) or as two networked peers:
//
//	otgen -role sender   -listen :7000  -params 2^20 -iters 2
//	otgen -role receiver -connect host:7000 -params 2^20 -iters 2
//
// The sender prints Δ-verified statistics in in-process mode; across
// the network each side prints its own timing and traffic.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"ironman"
)

func main() {
	role := flag.String("role", "", "sender or receiver (network mode)")
	listen := flag.String("listen", "", "address to listen on (network mode)")
	connect := flag.String("connect", "", "address to dial (network mode)")
	paramName := flag.String("params", "2^20", "Table 4 parameter set")
	iters := flag.Int("iters", 1, "Extend iterations")
	inproc := flag.Bool("inproc", false, "run both parties in-process")
	flag.Parse()

	params, err := ironman.ParamsByName(*paramName)
	if err != nil {
		log.Fatal(err)
	}

	if *inproc {
		runInProcess(params, *iters)
		return
	}

	var nc net.Conn
	switch {
	case *listen != "":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		fmt.Printf("listening on %s\n", ln.Addr())
		nc, err = ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
	case *connect != "":
		var err error
		nc, err = net.Dial("tcp", *connect)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -inproc, -listen or -connect")
	}
	defer nc.Close()
	conn := ironman.NewTCPConn(nc)

	switch *role {
	case "sender":
		delta := ironman.RandomDelta()
		start := time.Now()
		s, err := ironman.NewSender(conn, delta, params, ironman.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("init done in %v\n", time.Since(start))
		for i := 0; i < *iters; i++ {
			t := time.Now()
			z, err := s.COTs(params.Usable())
			if err != nil {
				log.Fatal(err)
			}
			d := time.Since(t)
			fmt.Printf("iter %d: %d COTs in %v (%.2f M COT/s)\n",
				i, len(z), d, float64(len(z))/d.Seconds()/1e6)
		}
		fmt.Printf("traffic: %v\n", conn.Stats())
	case "receiver":
		start := time.Now()
		r, err := ironman.NewReceiver(conn, params, ironman.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("init done in %v\n", time.Since(start))
		for i := 0; i < *iters; i++ {
			t := time.Now()
			bits, _, err := r.COTs(params.Usable())
			if err != nil {
				log.Fatal(err)
			}
			d := time.Since(t)
			fmt.Printf("iter %d: %d COTs in %v (%.2f M COT/s)\n",
				i, len(bits), d, float64(len(bits))/d.Seconds()/1e6)
		}
		fmt.Printf("traffic: %v\n", conn.Stats())
	default:
		log.Fatal("network mode needs -role sender|receiver")
	}
}

func runInProcess(params ironman.Params, iters int) {
	a, b := ironman.Pipe()
	delta := ironman.RandomDelta()
	s, r, err := ironman.NewDealtPair(a, b, delta, params, ironman.Options{})
	if err != nil {
		log.Fatal(err)
	}
	n := params.Usable()
	for i := 0; i < iters; i++ {
		start := time.Now()
		type sres struct {
			z   []ironman.Block
			err error
		}
		ch := make(chan sres, 1)
		go func() {
			z, err := s.COTs(n)
			ch <- sres{z, err}
		}()
		bits, blocks, err := r.COTs(n)
		if err != nil {
			log.Fatal(err)
		}
		sr := <-ch
		if sr.err != nil {
			log.Fatal(sr.err)
		}
		d := time.Since(start)
		if err := ironman.VerifyCOTs(delta, sr.z, bits, blocks); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		fmt.Printf("iter %d: %d COTs verified in %v (%.2f M COT/s per side)\n",
			i, n, d, float64(n)/d.Seconds()/1e6)
	}
	fmt.Printf("sender traffic: %v\n", a.Stats())
}
