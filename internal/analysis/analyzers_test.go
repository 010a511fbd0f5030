package analysis

import (
	"go/ast"
	"testing"
)

func TestDetrange(t *testing.T)   { runFixture(t, Detrange, "ironman/internal/detfix") }
func TestRandsrc(t *testing.T)    { runFixture(t, Randsrc, "ironman/internal/randfix") }
func TestSecretleak(t *testing.T) { runFixture(t, Secretleak, "ironman/internal/leakfix") }
func TestWireerr(t *testing.T)    { runFixture(t, Wireerr, "ironman/internal/wirefix") }
func TestLocknet(t *testing.T)    { runFixture(t, Locknet, "ironman/internal/lockfix") }

// TestDeadexport runs the module check over the deadmod fixture module:
// its root package, an internal library, its test file, and an internal
// package main.
func TestDeadexport(t *testing.T) {
	fi := loader(t)
	var pkgs []*loadedPackage
	var files []*ast.File
	for _, path := range []string{"deadmod", "deadmod/internal/lib", "deadmod/internal/gen"} {
		p, err := fi.load(path)
		if err != nil {
			t.Fatalf("load fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
		files = append(files, p.files...)
	}
	checkWants(t, fi.fset, files, deadExports(fi.fset, "deadmod", pkgs))
}

// TestStubsClean runs every analyzer over the stub packages: compliant
// code must produce zero diagnostics.
func TestStubsClean(t *testing.T) {
	for _, path := range []string{
		"ironman/internal/transport",
		"ironman/internal/block",
		"ironman/internal/obs",
	} {
		for _, a := range Analyzers {
			runFixture(t, a, path)
		}
	}
}
