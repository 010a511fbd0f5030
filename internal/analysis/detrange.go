package analysis

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Detrange enforces the transcript-determinism invariant: a Ferret-style
// PCG protocol desyncs unrecoverably if the two parties' wire
// transcripts diverge, so no nondeterministic value may influence any
// code that is transcript-relevant (reaches a transport send, or is
// called inside a call tree that sends). Flagged sources: map-range
// iteration order, time.Now/Since, math/rand, and GOMAXPROCS/NumCPU.
// crypto/rand is deliberately not a detrange source — protocol
// randomness is randsrc's domain, with its own import rule.
var Detrange = &analysis.Analyzer{
	Name: "detrange",
	Doc: "flag nondeterministic values (map ranges, time.Now, math/rand, GOMAXPROCS) on paths that reach a transport send\n\n" +
		"Wire transcripts must be a deterministic function of the protocol inputs at any worker count; " +
		"suppress audited exceptions with //ironman:allow(detrange) <reason>.",
	Run: allowRun(runDetrange),
}

func runDetrange(pass *analysis.Pass, idx *allowIndex) {
	g := buildCallGraph(pass)
	involved := g.sendInvolved()
	for obj, fd := range g.decls {
		if !involved[obj] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok && !isCollectionRange(n) {
						report(pass, idx, n.Range, fmt.Sprintf(
							"map iteration order in %s is transcript-relevant (reaches a transport send); iterate a sorted copy or add //ironman:allow(detrange) <reason>",
							obj.Name()))
					}
				}
			case *ast.CallExpr:
				f := calleeOf(pass.TypesInfo, n)
				if src := detrangeSource(f); src != "" {
					report(pass, idx, n.Pos(), fmt.Sprintf(
						"%s in %s is transcript-relevant (reaches a transport send); derive the value deterministically or add //ironman:allow(detrange) <reason>",
						src, obj.Name()))
				}
			}
			return true
		})
	}
}

// isCollectionRange recognizes the first half of the compliant
// sorted-enumeration idiom: a map range whose body does nothing but
// append to a slice (which the caller then sorts). Order-insensitive
// collection introduces no nondeterminism, so it is exempt; any other
// statement in the body keeps the range flagged.
func isCollectionRange(r *ast.RangeStmt) bool {
	if len(r.Body.List) == 0 {
		return false
	}
	for _, stmt := range r.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// detrangeSource classifies a callee as a nondeterminism source,
// returning a human-readable name or "".
func detrangeSource(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			return "time." + f.Name()
		}
	case "math/rand", "math/rand/v2":
		return f.Pkg().Path() + "." + f.Name()
	case "runtime":
		if f.Name() == "GOMAXPROCS" || f.Name() == "NumCPU" {
			return "runtime." + f.Name()
		}
	}
	return ""
}
