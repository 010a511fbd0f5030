// Package analysis is ironman-vet: a suite of five domain-specific
// static analyzers that make the repo's hardest-won protocol
// invariants machine-checked at vet time instead of replay time.
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
// Every analyzer honors the audited suppression directive
//
//	//ironman:allow(<analyzer>[,<analyzer>...]) <reason>
//
// on the offending line or the line above; the reason is mandatory.
//
// The suite runs two ways: as a go vet tool
// (go vet -vettool=$(which ironman-vet) ./..., see cmd/ironman-vet)
// and in-process over the whole module via CheckModule, which the
// vet-clean test uses so a plain `go test ./...` catches invariant
// regressions without the vettool.
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
