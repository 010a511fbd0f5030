package analysis

import (
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var moduleLoad struct {
	once sync.Once
	m    *module
	err  error
}

// loadedModule loads the whole module once for every test that checks
// it.
func loadedModule(t *testing.T) *module {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping whole-module analysis in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	moduleLoad.once.Do(func() { moduleLoad.m, moduleLoad.err = loadModule("../..") })
	if moduleLoad.err != nil {
		t.Fatalf("loadModule: %v", moduleLoad.err)
	}
	return moduleLoad.m
}

func failFindings(t *testing.T, findings []Finding, what string) {
	t.Helper()
	if len(findings) == 0 {
		return
	}
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	t.Errorf("%d %s; fix them or add //ironman:allow(<analyzer>) <reason>:\n%s",
		len(findings), what, strings.Join(lines, "\n"))
}

// TestModuleVetClean runs the whole ironman-vet suite over the whole
// module in-process, so a plain `go test ./...` enforces the protocol
// invariants even when nobody wires up the vettool. Every finding here
// is a regression: pre-existing ones were fixed or carry an audited
// //ironman:allow directive.
func TestModuleVetClean(t *testing.T) {
	m := loadedModule(t)
	failFindings(t, m.vet(Analyzers), "ironman-vet invariant violation(s)")
}

// TestModuleNoDeadExports holds internal/ to exported names some
// non-test file in the module uses (see deadexport.go).
func TestModuleNoDeadExports(t *testing.T) {
	m := loadedModule(t)
	failFindings(t, deadExports(m.fset, m.pkgs), "dead export(s)")
}

// TestOneMeasurementPath keeps the pre-ledger benchmark stack from
// growing back: benchmark/ is the one source of measured numbers, so
// no BENCH_*.json artifact may sit at the root, and internal/experiments
// (the paper's figures) feeds cmd/ironman-bench and nothing else.
func TestOneMeasurementPath(t *testing.T) {
	if stale, _ := filepath.Glob("../../BENCH_*.json"); len(stale) > 0 {
		t.Errorf("committed benchmark artifacts %v: quote numbers from `go run ./benchmark`", stale)
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if pkg == "ironman/cmd/ironman-bench" || pkg == "ironman/benchmark" {
			continue
		}
		for _, imp := range strings.Fields(imports) {
			if imp == "ironman/internal/experiments" {
				t.Errorf("%s imports internal/experiments; measure through benchmark/ instead", pkg)
			}
		}
	}
}
