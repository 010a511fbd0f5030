package analysis

import (
	"fmt"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Randsrc enforces the repo's randomness discipline as an import rule
// on non-test files: math/rand is banned under internal/ (it is
// neither cryptographically secure nor transcript-safe), and crypto/rand
// may be imported only by the packages in randPackages. Every other
// package draws its randomness from an aesprg.NewLocal stream, keyed
// once per endpoint from a seed or from crypto/rand, so seeded runs
// replay byte-identically and no package keeps a second, unseeded path.
var Randsrc = &analysis.Analyzer{
	Name: "randsrc",
	Doc: "ban math/rand in internal/ packages and restrict crypto/rand imports to aesprg, baseot and wire\n\n" +
		"Endpoint-local randomness must come from an aesprg.NewLocal stream; audited exceptions use //ironman:allow(randsrc) <reason>.",
	Run: allowRun(runRandsrc),
}

// randPackages may import crypto/rand: aesprg keys the NewLocal
// streams, baseot draws the public-key base-OT secrets, and wire mints
// the dispenser's session and capability tokens.
var randPackages = map[string]bool{
	"ironman/internal/aesprg":      true,
	"ironman/internal/baseot":      true,
	"ironman/internal/otserv/wire": true,
}

func runRandsrc(pass *analysis.Pass, idx *allowIndex) {
	path := pass.Pkg.Path()
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			switch p := strings.Trim(imp.Path.Value, `"`); p {
			case "math/rand", "math/rand/v2":
				if strings.Contains(path, "/internal/") {
					report(pass, idx, imp.Pos(), fmt.Sprintf(
						"%s imported in protocol code; use the seeded aesprg streams (math/rand is neither secure nor replay-deterministic)", p))
				}
			case "crypto/rand":
				if !randPackages[path] {
					report(pass, idx, imp.Pos(), fmt.Sprintf(
						"crypto/rand imported by %s; draw from the endpoint's aesprg.NewLocal stream (only aesprg, baseot and wire import crypto/rand)", path))
				}
			}
		}
	}
}
