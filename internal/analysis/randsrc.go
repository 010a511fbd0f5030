package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Randsrc enforces the repo's randomness discipline in non-test
// internal/ code: math/rand is banned outright (it is neither
// cryptographically secure nor transcript-safe), and crypto/rand may
// only appear at setup-time call sites — mid-protocol randomness must
// come from the seeded aesprg streams so dealt runs replay
// byte-identically. "Setup-time" means the enclosing function is a
// constructor or dealer (name prefix new/deal/setup/open, any case) or
// the whole package is setup-phase (base-OT initialization). Anything
// else needs an audited //ironman:allow(randsrc) <reason>.
var Randsrc = &analysis.Analyzer{
	Name: "randsrc",
	Doc: "ban math/rand and restrict crypto/rand to setup-time call sites in internal/ packages\n\n" +
		"Mid-protocol randomness must come from the seeded aesprg streams; audited exceptions use //ironman:allow(randsrc) <reason>.",
	Run: runRandsrc,
}

// setupPackages run once at initialization (base OTs and the IKNP
// bootstrap); every draw of randomness there is setup by construction.
var setupPackages = map[string]bool{
	"ironman/internal/baseot": true,
	"ironman/internal/iknp":   true,
}

// setupPrefixes mark constructor/dealer functions where fresh
// crypto/rand material (keys, Δ, tokens, PRG seeds) is expected.
var setupPrefixes = []string{"new", "deal", "setup", "open"}

func isSetupFunc(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range setupPrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

func runRandsrc(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if !strings.Contains(path, "/internal/") || setupPackages[path] {
		return nil, nil
	}
	idx := buildAllowIndex(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, imp := range file.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				report(pass, idx, imp.Pos(), fmt.Sprintf(
					"%s imported in protocol code; use the seeded aesprg streams (math/rand is neither secure nor replay-deterministic)",
					strings.Trim(imp.Path.Value, `"`)))
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			setup := isSetupFunc(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeOf(pass.TypesInfo, call)
				if !isCryptoRand(f) {
					return true
				}
				if !setup {
					report(pass, idx, call.Pos(), fmt.Sprintf(
						"crypto/rand.%s outside a setup-time function (%s); draw from the session's seeded PRG stream or add //ironman:allow(randsrc) <reason>",
						f.Name(), fd.Name.Name))
				}
				return false
			})
		}
	}
	return nil, nil
}

func isCryptoRand(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "crypto/rand"
}
