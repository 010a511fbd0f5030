package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Wireerr flags silently discarded errors from this module's protocol
// surfaces (expression statements, defers, and go statements calling
// ironman functions whose last result is an error). A swallowed Send
// or Close error is the exact desync class PR 4's chunking work fixed
// by hand: one party fails mid-flight, the other keeps waiting on a
// transcript position that will never arrive. Assigning to _ is an
// explicit, reviewable discard and is accepted; an invisible discard
// is not. This is deliberately narrower than errcheck: only the
// module's own wire-bearing packages are in scope, so the signal stays
// high.
var Wireerr = &analysis.Analyzer{
	Name: "wireerr",
	Doc: "flag discarded errors from ironman protocol calls (transport/cot/gmw/otserv send-recv-close paths)\n\n" +
		"Handle the error, assign it to _, or suppress with //ironman:allow(wireerr) <reason>.",
	Run: allowRun(runWireerr),
}

// ironmanPath reports whether a package path belongs to this module's
// protocol surface: the root package or any internal package.
func ironmanPath(path string) bool {
	return path == "ironman" || strings.HasPrefix(path, "ironman/internal/")
}

// wireScoped reports whether the call is part of this module's protocol
// surface, returning a qualified name for the diagnostic or "". In
// scope: callees declared in the root package or an internal package,
// and — for methods promoted from embedded stdlib interfaces, like
// transport.Conn's io.Closer — calls whose receiver's static type is.
func wireScoped(info *types.Info, call *ast.CallExpr, f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	if ironmanPath(f.Pkg().Path()) {
		return f.Pkg().Name() + "." + f.Name()
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if !ironmanPath(named.Obj().Pkg().Path()) {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + f.Name()
}

// returnsError reports whether f's last result is the error type.
func returnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

func runWireerr(pass *analysis.Pass, idx *allowIndex) {
	check := func(call *ast.CallExpr, how string) {
		f := calleeOf(pass.TypesInfo, call)
		name := wireScoped(pass.TypesInfo, call, f)
		if name == "" || !returnsError(f) {
			return
		}
		report(pass, idx, call.Pos(), fmt.Sprintf(
			"%s error from %s is silently discarded (desync risk); handle it, assign to _, or add //ironman:allow(wireerr) <reason>",
			how, name))
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "call")
				}
			case *ast.DeferStmt:
				check(n.Call, "deferred")
			case *ast.GoStmt:
				check(n.Call, "go-statement")
			}
			return true
		})
	}
}
