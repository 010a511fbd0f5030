package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Locknet forbids network I/O while a mutex is held. The pool and
// otserv design threads metric updates through mutex-held points (the
// Observer contract depends on it), and one transport round trip under
// such a lock turns a microsecond critical section into a
// network-latency one — or a deadlock when the peer's reply needs the
// same lock. The scan is syntactic and per-function: a sync
// Lock/RLock on an expression opens a held region, the matching
// Unlock/RUnlock closes it, a deferred Unlock holds to function end;
// in a held region, direct transport Send/Recv calls, calls into
// same-package functions that reach a send, and net dials are flagged.
var Locknet = &analysis.Analyzer{
	Name: "locknet",
	Doc: "flag network I/O (transport send/recv, net dials) while holding a sync mutex\n\n" +
		"Move the I/O outside the critical section or suppress with //ironman:allow(locknet) <reason>.",
	Run: allowRun(runLocknet),
}

// lockKind classifies a call as acquiring or releasing a sync lock,
// returning the receiver expression and +1/-1 (0 when not a lock op).
func lockKind(info *types.Info, call *ast.CallExpr) (recv string, dir int) {
	f := calleeOf(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	recv = types.ExprString(sel.X)
	switch f.Name() {
	case "Lock", "RLock":
		return recv, +1
	case "Unlock", "RUnlock":
		return recv, -1
	}
	return "", 0
}

// netIO classifies a callee as network I/O for the purposes of this
// check, returning a label or "".
func netIO(f *types.Func, reach map[*types.Func]bool) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	if isTransportIO(f) {
		return "transport." + f.Name()
	}
	if f.Pkg().Path() == "net" && (strings.HasPrefix(f.Name(), "Dial") || f.Name() == "Listen") {
		return "net." + f.Name()
	}
	if reach[f] {
		return f.Name() + " (reaches a transport send)"
	}
	return ""
}

func runLocknet(pass *analysis.Pass, idx *allowIndex) {
	g := buildCallGraph(pass)
	reach := g.reachesSend()
	for _, fd := range g.decls {
		held := make(map[string]bool)
		scanLocknet(pass, idx, reach, fd.Body.List, held)
	}
}

// scanLocknet walks a statement list in order, tracking the held-lock
// set. Branch bodies get a copy of the set so an early-return unlock
// in one arm does not bleed into the fall-through path.
func scanLocknet(pass *analysis.Pass, idx *allowIndex, reach map[*types.Func]bool, stmts []ast.Stmt, held map[string]bool) {
	copyHeld := func() map[string]bool {
		c := make(map[string]bool, len(held))
		for k := range held {
			c[k] = true
		}
		return c
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			scanLocknet(pass, idx, reach, s.List, held)
			continue
		case *ast.IfStmt:
			if s.Init != nil {
				scanLocknet(pass, idx, reach, []ast.Stmt{s.Init}, held)
			}
			checkCalls(pass, idx, reach, s.Cond, held)
			scanLocknet(pass, idx, reach, s.Body.List, copyHeld())
			if s.Else != nil {
				scanLocknet(pass, idx, reach, []ast.Stmt{s.Else}, copyHeld())
			}
			continue
		case *ast.ForStmt:
			scanLocknet(pass, idx, reach, s.Body.List, copyHeld())
			continue
		case *ast.RangeStmt:
			checkCalls(pass, idx, reach, s.X, held)
			scanLocknet(pass, idx, reach, s.Body.List, copyHeld())
			continue
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var clauses []ast.Stmt
			switch s := s.(type) {
			case *ast.SwitchStmt:
				clauses = s.Body.List
			case *ast.TypeSwitchStmt:
				clauses = s.Body.List
			case *ast.SelectStmt:
				clauses = s.Body.List
			}
			for _, c := range clauses {
				switch c := c.(type) {
				case *ast.CaseClause:
					scanLocknet(pass, idx, reach, c.Body, copyHeld())
				case *ast.CommClause:
					scanLocknet(pass, idx, reach, c.Body, copyHeld())
				}
			}
			continue
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end
			// (no set change); any other deferred call runs after the
			// locks this scan knows about are gone, so only its own
			// body matters — and function literals are scanned
			// independently by checkCalls below.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				scanLocknet(pass, idx, reach, lit.Body.List, make(map[string]bool))
			}
			continue
		}
		checkCalls(pass, idx, reach, stmt, held)
	}
}

// checkCalls inspects one statement or expression for lock transitions
// and, while any lock is held, network I/O. Function literals are
// scanned with a fresh held set: they execute later, on their own
// goroutine or call path.
func checkCalls(pass *analysis.Pass, idx *allowIndex, reach map[*types.Func]bool, n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanLocknet(pass, idx, reach, n.Body.List, make(map[string]bool))
			return false
		case *ast.CallExpr:
			if recv, dir := lockKind(pass.TypesInfo, n); dir != 0 {
				if dir > 0 {
					held[recv] = true
				} else {
					delete(held, recv)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			if label := netIO(calleeOf(pass.TypesInfo, n), reach); label != "" {
				report(pass, idx, n.Pos(), fmt.Sprintf(
					"%s while holding %s; network I/O under a mutex stalls every other holder — move it outside the critical section or add //ironman:allow(locknet) <reason>",
					label, heldNames(held)))
			}
		}
		return true
	})
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
