// Package extension defines the pluggable correlated-OT extension
// backend API: the one contract a protocol family implements to plug
// into every consumer layer — the public ironman endpoints, the
// prefetching pools, the otserv dispenser's HELLO negotiation, and the
// benchmark harness. Two backends ship: "ferret" (internal/ferret,
// PCG-style LPN; the paper's design point, lowest bytes/COT) and
// "softspoken" (internal/softspoken, small-field subfield-VOLE; one
// message flight per batch, no LPN compute). DESIGN.md's "Extension
// backends" section has the selection guidance.
//
// A Backend is stateless and looked up by name; endpoints produced by
// it carry all per-instance state. Every backend must uphold the two
// repo-wide guarantees its consumers rely on: a byte-identical wire
// transcript at any Options.Workers count, and an exact Cost model —
// the extend bench asserts measured transcripts against
// Cost().ExtendBytes byte-for-byte.
package extension

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/obs"
	"ironman/internal/transport"
)

// Params re-exports the Table 4 parameter-set shape all backends are
// keyed on. Ferret consumes the full LPN geometry; SoftSpoken only the
// batch size (NumOTs), so one negotiated set drives either backend.
type Params = ferret.Params

// Options is the backend-independent endpoint configuration; each
// backend maps the fields it understands onto its own options and
// ignores the rest.
type Options struct {
	// Workers caps the goroutines of Extend's local phases. 0 selects
	// runtime.GOMAXPROCS. Never affects the wire transcript.
	Workers int
	// Seed, when non-zero, makes every endpoint-local random draw
	// deterministic (NOT secure; determinism tests and benchmarks).
	Seed block.Block
	// Trace records the backend's Extend phase spans when non-nil.
	Trace *obs.Tracer
	// BinaryAES selects the classic binary AES GGM construction on
	// backends with an m-ary tree choice (ferret; SoftSpoken's trees
	// are always binary AES).
	BinaryAES bool
	// FieldBits is the SoftSpoken subfield size k (1, 2, 4 or 8; 0
	// selects the backend default). Ignored by ferret.
	FieldBits int
}

// Cost is a backend's exact per-Extend wire model plus its setup
// profile, for routing sessions by workload and for the bench's
// model-vs-measured assertions.
type Cost struct {
	// ExtendBytes is the exact transcript size (both directions) of
	// one Extend batch.
	ExtendBytes int64 `json:"extend_bytes"`
	// BytesPerCOT is ExtendBytes amortized over the batch.
	BytesPerCOT float64 `json:"bytes_per_cot"`
	// Rounds is the number of one-way message flights per Extend.
	Rounds int `json:"rounds"`
	// BaseOTs is the number of public-key base OTs setup consumes.
	BaseOTs int `json:"base_ots"`
}

// Sender is an initialized extension sender: the holder of the global
// correlation Δ. Extend yields one batch of z blocks with
// z = y ⊕ x·Δ against the peer receiver's (x, y).
type Sender interface {
	Extend() ([]block.Block, error)
	Delta() block.Block
}

// Receiver is an initialized extension receiver; Extend yields one
// batch of choice bits x and blocks y.
type Receiver interface {
	Extend() ([]bool, []block.Block, error)
}

// Backend is one OT-extension protocol family. Implementations are
// stateless values safe for concurrent use; all per-instance state
// lives in the endpoints they construct.
type Backend interface {
	// Name is the key ByName resolves ("ferret", "softspoken").
	Name() string
	// Batch is the usable correlations one Extend yields under p.
	Batch(p Params) int
	// Cost is the exact wire model for one Extend under (p, o).
	Cost(p Params, o Options) Cost
	// NewSender initializes the sending endpoint over conn; the peer
	// must run NewReceiver concurrently (base OTs + setup flights).
	NewSender(conn transport.Conn, delta block.Block, p Params, o Options) (Sender, error)
	// NewReceiver initializes the receiving endpoint.
	NewReceiver(conn transport.Conn, p Params, o Options) (Receiver, error)
	// DealPair returns an initialized in-process pair whose setup
	// comes from a local trusted dealer instead of base OTs (NOT
	// secure; tests, benchmarks, and the dispenser's in-process
	// generator use it).
	DealPair(connS, connR transport.Conn, delta block.Block, p Params, o Options) (Sender, Receiver, error)
}

// Default is the backend used when no selection is made anywhere: the
// paper's design point.
const Default = "ferret"

// ErrUnknown is the sentinel wrapped by ByName for unknown
// backend names; match with errors.Is.
var ErrUnknown = errors.New("extension: unknown backend")

// backends is every backend, keyed by its Name.
var backends = map[string]Backend{
	"ferret":     ferretBackend{},
	"softspoken": softSpokenBackend{},
}

// ByName resolves a backend; "" selects Default. Unknown names fail
// with an ErrUnknown-wrapping error naming the valid choices.
func ByName(name string) (Backend, error) {
	if name == "" {
		name = Default
	}
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknown, name, strings.Join(Names(), " "))
}

// Names lists the backends, sorted.
func Names() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ExtendLockstep runs one iteration of both endpoints of an
// in-process pair concurrently and joins the results; serving layers
// (pool.Dealt sources) use it to keep a dealt pair's iteration counts
// aligned under one driver.
func ExtendLockstep(s Sender, r Receiver) ([]block.Block, []bool, []block.Block, error) {
	var z []block.Block
	var serr error
	done := make(chan struct{})
	go func() {
		z, serr = s.Extend()
		close(done)
	}()
	bits, y, rerr := r.Extend()
	<-done
	if serr != nil {
		return nil, nil, nil, serr
	}
	if rerr != nil {
		return nil, nil, nil, rerr
	}
	return z, bits, y, nil
}
