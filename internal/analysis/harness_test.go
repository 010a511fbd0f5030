package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// This file is a miniature analysistest: fixtures live GOPATH-style
// under testdata/src/<import path>, stub packages reuse the real
// ironman import paths so path-keyed matching (transport sends, obs
// sinks, block types) behaves exactly as it does under the unitchecker,
// and expected diagnostics are written as trailing
//
//	// want "regexp" ["regexp" ...]
//
// comments on the offending line. x/tools' own analysistest needs
// go/packages, which the vendored distribution subset does not carry —
// this harness needs only the stdlib importer plus CheckPackage.

// fixtureImporter resolves imports from testdata/src first and falls
// back to compiling the standard library from source (the test binary
// has no export data for GOPATH-style fixture builds).
type fixtureImporter struct {
	fset  *token.FileSet
	root  string
	std   types.Importer
	cache map[string]*loadedPackage
}

var fixtureLoader = struct {
	once sync.Once
	imp  *fixtureImporter
}{}

func loader(t *testing.T) *fixtureImporter {
	t.Helper()
	fixtureLoader.once.Do(func() {
		fset := token.NewFileSet()
		fixtureLoader.imp = &fixtureImporter{
			fset:  fset,
			root:  filepath.Join("testdata", "src"),
			std:   importer.ForCompiler(fset, "source", nil),
			cache: make(map[string]*loadedPackage),
		}
	})
	return fixtureLoader.imp
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	p, err := fi.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (fi *fixtureImporter) load(path string) (*loadedPackage, error) {
	if p, ok := fi.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		pkg, err := fi.std.Import(path)
		if err != nil {
			return nil, err
		}
		p := &loadedPackage{pkg: pkg}
		fi.cache[path] = p
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: fi}
	pkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	p := &loadedPackage{pkg: pkg, files: files, info: info}
	fi.cache[path] = p
	return p, nil
}

var (
	wantLineRe  = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantQuoteRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// expectation is one unmatched // want entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantQuoteRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture runs exactly one analyzer over one fixture package and
// diffs its diagnostics against the fixture's // want comments.
func runFixture(t *testing.T, a *analysis.Analyzer, path string) {
	t.Helper()
	fi := loader(t)
	p, err := fi.load(path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}
	checkWants(t, fi.fset, p.files, RunAnalyzers(fi.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{a}))
}

// checkWants diffs findings against the // want comments in files.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, findings []Finding) {
	t.Helper()
	wants := parseWants(t, fset, files)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		hit := false
		for i, w := range wants {
			if !matched[i] && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic at %s: %s", f.Pos, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	if t.Failed() {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		sort.Strings(got)
		t.Logf("all diagnostics:\n%s", strings.Join(got, "\n"))
	}
}
