// Package analysis is ironman-vet: five domain-specific static
// analyzers that make the repo's hardest-won protocol invariants
// machine-checked at vet time instead of replay time, plus one
// module-wide check.
//
// The invariants and their analyzers:
//
//   - detrange — wire transcripts are byte-identical at any worker
//     count: no map-range order, time.Now, math/rand, or
//     GOMAXPROCS-dependent value may influence transcript-relevant
//     code (a call-graph walk from transport Send sites).
//   - randsrc — math/rand is banned in internal/ protocol code and
//     crypto/rand is restricted to setup-time call sites; mid-protocol
//     randomness comes from the seeded aesprg streams.
//   - secretleak — Δ-correlations, GGM/PRG seeds, attach tokens, and
//     correlation block buffers must not flow into fmt/log/obs sinks.
//   - wireerr — errors from the module's protocol calls must not be
//     silently discarded (the classic desync: one party fails
//     mid-flight, the other waits forever).
//   - locknet — no network I/O while holding a mutex (the pool/otserv
//     metric points hold locks; a send under one serializes the fleet).
//
// The module check, deadexport (deadexport.go): an exported name in a
// package under internal/ or in the root package (whose import path is
// the module path) is dead when no non-test file of the module
// references it. Exempt are methods that implement an interface method
// (the module's or the standard library's), embedded fields and tagged
// struct fields; fields of unnamed struct types match by name. Package
// main directories are not scanned, though their uses count. The uses
// come from dependents, so it is not an Analyzer: it runs in
// `go test ./internal/analysis`, not under the vettool.
//
// Every check honors the audited suppression directive
//
//	//ironman:allow(<analyzer>[,<analyzer>...]) <reason>
//
// trailing the offending line or alone on the line above; the reason is
// mandatory, and a directive that suppresses nothing is itself a
// finding.
//
// The analyzers run two ways: as a go vet tool
// (go vet -vettool=$(which ironman-vet) ./..., see cmd/ironman-vet)
// and in-process over the whole module, which the vet-clean test uses
// so a plain `go test ./...` catches invariant regressions without the
// vettool.
package analysis

import "golang.org/x/tools/go/analysis"

// Analyzers is the ironman-vet suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	Detrange,
	Randsrc,
	Secretleak,
	Wireerr,
	Locknet,
}
