package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Secretleak is a taint-lite pass keeping secret material out of the
// human-readable surfaces: Δ-correlations, PRG/GGM seeds, and attach
// tokens must never flow into fmt/log error strings or obs metric
// names, labels, and span names (logs and /metrics are scraped and
// shipped places ciphertext keys must not go). Two taint rules, both
// deliberately shallow: an identifier whose name contains
// delta/seed/token/secret, or any value of (or containing) the
// correlation type block.Block. One level of local-assignment
// propagation; no cross-function flow — this catches the way leaks are
// actually written, not every way they could be laundered.
var Secretleak = &analysis.Analyzer{
	Name: "secretleak",
	Doc: "flag secret material (Δ, seeds, tokens, correlation blocks) flowing into fmt/log/obs sinks\n\n" +
		"Suppress audited exceptions with //ironman:allow(secretleak) <reason>.",
	Run: allowRun(runSecretleak),
}

const obsPath = "ironman/internal/obs"

var secretNames = []string{"delta", "seed", "token", "secret"}

func taintedName(name string) bool {
	lower := strings.ToLower(name)
	for _, s := range secretNames {
		if strings.Contains(lower, s) {
			return true
		}
	}
	return false
}

// isBlockType reports whether t is block.Block or a slice/array/pointer
// of it — the type every COT correlation and Δ lives in.
func isBlockType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return isBlockType(t.Elem())
	case *types.Array:
		return isBlockType(t.Elem())
	case *types.Pointer:
		return isBlockType(t.Elem())
	case *types.Named:
		obj := t.Obj()
		return obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "ironman/internal/block" && obj.Name() == "Block"
	}
	return false
}

// sinkKind classifies a callee as a human-readable sink, returning a
// label for the diagnostic or "".
func sinkKind(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	name := f.Name()
	switch f.Pkg().Path() {
	case "fmt":
		for _, p := range []string{"Print", "Sprint", "Fprint", "Errorf", "Append"} {
			if strings.HasPrefix(name, p) {
				return "fmt." + name
			}
		}
	case "log", "log/slog":
		return f.Pkg().Path() + "." + name
	case "errors":
		if name == "New" {
			return "errors.New"
		}
	case obsPath:
		return "obs." + name
	}
	return ""
}

func runSecretleak(pass *analysis.Pass, idx *allowIndex) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locals := taintedLocals(pass.TypesInfo, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sink := sinkKind(calleeOf(pass.TypesInfo, call))
				if sink == "" {
					return true
				}
				for _, arg := range call.Args {
					if name, ok := taintedExpr(pass.TypesInfo, arg, locals); ok {
						report(pass, idx, arg.Pos(), fmt.Sprintf(
							"%s flows into %s; secret material must not reach logs, error strings, or metric labels — redact it or add //ironman:allow(secretleak) <reason>",
							name, sink))
					}
				}
				return true
			})
		}
	}
}

// taintedLocals runs two fixpoint rounds over the function's
// assignments, collecting local names bound to tainted expressions.
// Propagation is position-pairwise only (x := taintedExpr); the
// multi-value form `v, err := f(...)` is not an information flow from
// f's arguments into err, and block-typed results are already caught
// by their type at the use site.
func taintedLocals(info *types.Info, fd *ast.FuncDecl) map[string]bool {
	locals := make(map[string]bool)
	for round := 0; round < 2; round++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if _, ok := taintedExpr(info, rhs, locals); !ok {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				// An error built from a call that took secret
				// arguments is not itself the secret; the callee's
				// own fmt sites are checked in its package.
				if t := info.TypeOf(id); t != nil && types.Identical(t, types.Universe.Lookup("error").Type()) {
					continue
				}
				locals[id.Name] = true
			}
			return true
		})
	}
	return locals
}

// taintedExpr reports whether any identifier inside e has a secret
// name (or is a tainted local), or any sub-expression carries the
// correlation block type. The returned name describes the taint for
// the diagnostic.
func taintedExpr(info *types.Info, e ast.Expr, locals map[string]bool) (string, bool) {
	var hit string
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// len/cap of a secret buffer is a benign size, and an
			// error-typed call result is not the secret its
			// arguments were (the callee's own sinks are checked in
			// its package) — but still walk the arguments: a tainted
			// value passed TO a sink-adjacent call like hex.Encode
			// inside the arg list stays visible.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
					return false
				}
			}
		case *ast.SelectorExpr:
			// Field selection projects taint by its own name and
			// type, not the base's: sess.id is a public counter even
			// when sess also holds tokens. Check Sel and the selected
			// type here, then stop — do not descend into X.
			if taintedName(n.Sel.Name) || locals[n.Sel.Name] {
				hit = n.Sel.Name
				return false
			}
			if t := info.TypeOf(n); t != nil && isBlockType(t) {
				hit = "a block.Block correlation value"
				return false
			}
			// A field of a correlation block (b.Hi, b.Lo) is raw
			// secret bits even when the field's own type is plain.
			if t := info.TypeOf(n.X); t != nil && isBlockType(t) {
				hit = "a block.Block correlation value"
			}
			return false
		case *ast.Ident:
			// A package qualifier (go/token's `token.NewFileSet`) is
			// not a value; only value identifiers carry taint.
			if _, isPkg := info.Uses[n].(*types.PkgName); isPkg {
				return false
			}
			if taintedName(n.Name) || locals[n.Name] {
				hit = n.Name
				return false
			}
			if t := info.TypeOf(n); t != nil && isBlockType(t) {
				hit = "a block.Block correlation value"
				return false
			}
		case ast.Expr:
			if t := info.TypeOf(n); t != nil && isBlockType(t) {
				hit = "a block.Block correlation value"
				return false
			}
		}
		return true
	})
	return hit, hit != ""
}
