// Command otd is the OT dispenser daemon: it serves correlated-OT
// streams to many concurrent client sessions, generating correlations
// ahead of demand with per-session prefetching pools.
//
//	otd -listen :7117 -params 2^20 -prefetch 2 -max-sessions 64
//
// A fleet runs N otd shards plus one otd router in front:
//
//	otd -listen :7601 -shard-id 1 &
//	otd -listen :7602 -shard-id 2 &
//	otd -listen :7603 -shard-id 3 &
//	otd -route -listen :7600 -shards 127.0.0.1:7601,127.0.0.1:7602,127.0.0.1:7603
//
// Clients open sessions with internal/otserv.Client against either a
// standalone daemon or the router — the protocol is identical. Query a
// running daemon's counters with:
//
//	otd -stats -connect host:7117
//
// An opt-in admin listener serves Prometheus metrics, a JSON session
// dump, and pprof profiles (keep it on loopback or a scrape network):
//
//	otd -listen :7117 -admin 127.0.0.1:9090
//
// In router mode the admin listener serves the fleet surface instead
// (/metrics /healthz /shards /shards/add /shards/drain).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ironman/internal/extension"
	"ironman/internal/otserv"
	"ironman/internal/otserv/router"
)

func main() {
	listen := flag.String("listen", ":7117", "address to serve on")
	params := flag.String("params", "2^20", "default Table 4 parameter set for sessions")
	backends := flag.String("backends", "", "extension backends to serve, comma-separated (default: all registered)")
	prefetch := flag.Int("prefetch", 2, "default per-session prefetch depth (Extend batches)")
	maxDepth := flag.Int("max-depth", 8, "cap on client-requested prefetch depth")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session limit")
	workers := flag.Int("workers", 0, "per-session Extend worker goroutines (0 = GOMAXPROCS)")
	shardID := flag.Uint64("shard-id", 0, "fleet shard id stamped into session ids (0 = standalone)")
	lease := flag.Duration("lease", 0, "default session lease for orphaned sessions (0 = server default)")
	route := flag.Bool("route", false, "run as the fleet router instead of a dispenser shard")
	shards := flag.String("shards", "", "router mode: comma-separated shard addresses")
	drainWait := flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM before forcing connections closed")
	stats := flag.Bool("stats", false, "dump a running daemon's stats and exit")
	connect := flag.String("connect", "", "daemon address for -stats")
	admin := flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /sessions, pprof (e.g. 127.0.0.1:9090)")
	flag.Parse()

	if *stats {
		if *connect == "" {
			log.Fatal("-stats needs -connect host:port")
		}
		dumpStats(*connect)
		return
	}

	var (
		d    daemon
		stop func()
	)
	if *route {
		r, addrs := newRouter(*shards)
		d, stop = r, func() {
			log.Print("otd: router shutting down")
			if err := r.Close(); err != nil {
				log.Printf("otd: close: %v", err)
			}
		}
		log.Printf("otd: routing on %s across %d shards (%s)", *listen, len(addrs), strings.Join(addrs, ","))
	} else {
		// Validate the backend allowlist at startup, not at first HELLO.
		var backendList []string
		for _, name := range strings.Split(*backends, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			if _, err := extension.ByName(name); err != nil {
				log.Fatalf("otd: -backends: unknown backend %q (valid: %s)", name, strings.Join(extension.Names(), " "))
			}
			backendList = append(backendList, name)
		}
		srv := otserv.NewServer(otserv.Config{
			DefaultParams: *params,
			Depth:         *prefetch,
			MaxDepth:      *maxDepth,
			MaxSessions:   *maxSessions,
			Workers:       *workers,
			Backends:      backendList,
			ShardID:       *shardID,
			Lease:         *lease,
		})
		d, stop = srv, func() {
			// Drain first: stop accepting, let in-flight requests
			// finish, tear sessions down in order, then exit. The drain
			// budget running out forces the remaining connections
			// closed.
			log.Printf("otd: draining (budget %s)", *drainWait)
			if err := srv.Shutdown(*drainWait); err != nil {
				log.Printf("otd: shutdown: %v", err)
			}
		}
		served := backendList
		if len(served) == 0 {
			served = extension.Names()
		}
		log.Printf("otd: dispensing on %s (shard %d, params %s, backends %s, prefetch %d, max %d sessions)",
			*listen, *shardID, *params, strings.Join(served, ","), *prefetch, *maxSessions)
	}
	serve(d, *listen, *admin, stop)
}

// daemon is what otd serves in either mode: a dispenser shard
// (*otserv.Server) or the fleet router (*router.Router).
type daemon interface {
	Serve(net.Listener) error
	AdminHandler() http.Handler
}

// newRouter builds the fleet router over the -shards list.
func newRouter(shardCSV string) (*router.Router, []string) {
	var addrs []string
	for _, a := range strings.Split(shardCSV, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("otd: -route needs -shards host:port,host:port,...")
	}
	return router.New(router.Config{Shards: addrs}), addrs
}

// serve runs d on listen, with its admin surface on admin when set,
// until SIGINT or SIGTERM runs stop and exits.
func serve(d daemon, listen, admin string, stop func()) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	if admin != "" {
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("otd: admin endpoint on http://%s", aln.Addr())
		go func() {
			if err := http.Serve(aln, d.AdminHandler()); err != nil {
				log.Printf("otd: admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stop()
		os.Exit(0)
	}()
	if err := d.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

func dumpStats(addr string) {
	c, err := otserv.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			log.Printf("otd: close: %v", err)
		}
	}()
	dump, err := c.ServerStats()
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
