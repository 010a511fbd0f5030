package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// transportPath is the package every wire byte of the protocol funnels
// through. Reaching one of its Send functions is what makes code
// transcript-relevant.
const transportPath = "ironman/internal/transport"

// calleeOf resolves the static callee of a call, or nil for dynamic
// calls (function values, field closures) and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isTransportSend reports whether f puts bytes on the wire: a
// transport package function or method whose name starts with Send.
func isTransportSend(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == transportPath &&
		strings.HasPrefix(f.Name(), "Send")
}

// isTransportIO additionally covers the receive direction (locknet
// blocks both while a mutex is held).
func isTransportIO(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == transportPath &&
		(strings.HasPrefix(f.Name(), "Send") || strings.HasPrefix(f.Name(), "Recv"))
}

// callGraph is the package-local static call graph. Dynamic calls
// (function fields, closures passed around) are not edges; the suite is
// deliberately package-local and best-effort — the replay tests remain
// the ground truth, the analyzers make the common regressions cheap to
// catch.
type callGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]*types.Func // edges to same-package callees
	sends map[*types.Func]bool          // contains a direct transport send
}

// buildCallGraph walks every non-test function declaration once.
// Function literals are attributed to their enclosing declaration:
// a closure defined inside F that sends makes F send-containing.
func buildCallGraph(pass *analysis.Pass) *callGraph {
	g := &callGraph{
		decls: make(map[*types.Func]*ast.FuncDecl),
		calls: make(map[*types.Func][]*types.Func),
		sends: make(map[*types.Func]bool),
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeOf(pass.TypesInfo, call)
				if f == nil {
					return true
				}
				if isTransportSend(f) {
					g.sends[obj] = true
				} else if f.Pkg() == pass.Pkg {
					g.calls[obj] = append(g.calls[obj], f)
				}
				return true
			})
		}
	}
	return g
}

// reachesSend computes the functions that can (via package-local
// static calls) put bytes on the wire.
func (g *callGraph) reachesSend() map[*types.Func]bool {
	reach := make(map[*types.Func]bool, len(g.sends))
	for f := range g.sends {
		reach[f] = true
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range g.calls {
			if reach[caller] {
				continue
			}
			for _, c := range callees {
				if reach[c] {
					reach[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// sendInvolved computes the transcript-relevant set: functions that
// can reach a send (their control flow decides what is sent) plus
// everything a send-containing function transitively calls (their
// results feed what is sent). otserv's statsDump is the canonical
// member of the second class: it never sends itself, but its output is
// the payload handleConn ships.
func (g *callGraph) sendInvolved() map[*types.Func]bool {
	involved := g.reachesSend()
	work := make([]*types.Func, 0, len(g.sends))
	for f := range g.sends {
		work = append(work, f)
	}
	seen := make(map[*types.Func]bool, len(g.sends))
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[f] {
			continue
		}
		seen[f] = true
		involved[f] = true
		work = append(work, g.calls[f]...)
	}
	return involved
}
