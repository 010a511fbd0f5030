// Dispenser example: open four concurrent sessions against an OT
// dispenser, draw correlated OTs from each, verify every batch under
// its session's Δ, then drop a connection and resume a session by its
// routing token.
//
// With no argument the dispenser runs in-process. Given an address,
// the example drives a running otd daemon or fleet router instead
// (cmd/otd); through the router the reconnect also exercises the
// token's shard placement:
//
//	go run ./examples/dispenser
//	otd -listen :7117 -params 2^20 &
//	go run ./examples/dispenser 127.0.0.1:7117
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"ironman"
	"ironman/internal/obs"
	"ironman/internal/otserv"
)

func main() {
	var (
		addr string
		reg  *obs.Registry
	)
	if len(os.Args) > 1 {
		addr = os.Args[1]
		fmt.Printf("dispenser at %s\n", addr)
	} else {
		// An in-process dispenser on a loopback port, sharing a
		// metrics registry with this process — the same registry otd
		// exposes on its -admin /metrics endpoint.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		reg = obs.NewRegistry()
		srv := otserv.NewServer(otserv.Config{DefaultParams: "2^20", Depth: 2, Registry: reg})
		go func() {
			// Serve returns nil once Close shuts the listener down.
			if err := srv.Serve(ln); err != nil {
				log.Fatal(err)
			}
		}()
		defer func() {
			if err := srv.Close(); err != nil {
				log.Printf("dispenser: close: %v", err)
			}
		}()
		addr = ln.Addr().String()
		fmt.Printf("dispenser on %s\n", addr)
	}

	const sessions = 4
	const n = 1 << 18 // draws per session
	var wg sync.WaitGroup
	var clients []*otserv.Client
	defer func() {
		for _, c := range clients {
			if err := c.Close(); err != nil {
				log.Printf("dispenser: client close: %v", err)
			}
		}
	}()
	for i := 0; i < sessions; i++ {
		c, err := otserv.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, c)
		wg.Add(1)
		go func(i int, c *otserv.Client) {
			defer wg.Done()
			sess, err := c.NewSession(otserv.SessionConfig{Depth: 2})
			if err != nil {
				log.Fatal(err)
			}
			delta, _ := sess.Delta()

			start := time.Now()
			z, err := sess.SenderCOTs(n)
			if err != nil {
				log.Fatal(err)
			}
			bits, y, err := sess.ReceiverCOTs(n)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(start)
			if err := ironman.VerifyCOTs(delta, z, bits, y); err != nil {
				log.Fatalf("session %d: %v", i, err)
			}
			st, err := sess.Stats()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("session %d (id %d): %d COTs verified in %v (%.2f M COT/s), "+
				"%d refills, %d blocked draws\n",
				i, sess.ID(), n, elapsed, float64(n)/elapsed.Seconds()/1e6,
				st.Sender.Refills, st.Sender.BlockedDraws)
		}(i, c)
	}
	wg.Wait()

	// Fleet-era session semantics: sessions carry a tenant (the quota
	// principal) and a routing token. A dropped connection orphans its
	// sessions into a lease window instead of tearing them down — a new
	// connection resumes the SAME session, and the same pool position,
	// with AttachToken. Against the fleet router the token also pins
	// the session's shard, so the reconnect lands where the state lives.
	c1, err := otserv.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := c1.NewSession(otserv.SessionConfig{
		Depth:  2,
		Tenant: "acme",
		Lease:  30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	token, senderTok, receiverTok := sess.Token(), sess.SenderToken(), sess.ReceiverToken()
	delta, _ := sess.Delta()
	z1, err := sess.SenderCOTs(4096)
	if err != nil {
		log.Fatal(err)
	}
	// Simulate a crash: drop the connection without closing the session.
	if err := c1.Close(); err != nil {
		log.Fatal(err)
	}

	c2, err := otserv.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	clients = append(clients, c2)
	re, err := c2.AttachToken(token, senderTok)
	if err != nil {
		log.Fatal(err)
	}
	z2, err := re.SenderCOTs(4096)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := c2.AttachToken(token, receiverTok)
	if err != nil {
		log.Fatal(err)
	}
	bits, y, err := rx.ReceiverCOTs(8192)
	if err != nil {
		log.Fatal(err)
	}
	// The receiver stream spans both halves of the sender's draws: the
	// reconnect resumed the pool mid-stream, byte-identically.
	if err := ironman.VerifyCOTs(delta, append(z1, z2...), bits, y); err != nil {
		log.Fatalf("reconnect: %v", err)
	}
	fmt.Printf("\ntenant %q session %d: reconnect-with-token resumed mid-stream, 8192 COTs verified across the drop\n",
		"acme", re.ID())
	if err := re.Close(); err != nil {
		log.Fatal(err)
	}

	// On exit, dump the registry the in-process server maintained: the
	// server-wide lifecycle series plus every live session's pool
	// counters and draw-latency quantiles — the in-process view of what
	// a Prometheus scrape of `otd -admin` would collect.
	if reg == nil {
		return
	}
	fmt.Println("\nregistry metrics at exit:")
	for _, m := range reg.Snapshot() {
		switch {
		case m.Type == "histogram":
			fmt.Printf("  %-72s count=%d p50=%.6fs p99=%.6fs\n",
				m.Name, m.Hist.Count, m.Hist.P50, m.Hist.P99)
		case strings.Contains(m.Name, "_draws_total") ||
			strings.Contains(m.Name, "_dispensed_total") ||
			strings.HasPrefix(m.Name, "ironman_otserv_"):
			fmt.Printf("  %-72s %.0f\n", m.Name, m.Value)
		}
	}
}
