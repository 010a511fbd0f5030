package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// This file is the in-process driver: it loads every package of the
// module with full type information (export data for dependencies,
// source for the packages under analysis — the same shape the go vet
// unitchecker sees) and runs the suite over them. The module tests use
// one load for the analyzers and for deadexport, so plain `go test
// ./...` enforces both without a vettool; it is also what keeps the
// analyzers honest about working from a Pass alone.

// Finding is one diagnostic from an analyzer, positioned in the
// module's source.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// listedPackage is the subset of `go list -json` output the driver
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// loadedPackage is one module package type-checked from source.
type loadedPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// module is every package of one Go module, each type-checked from its
// non-test files against export data for its imports — the shape the go
// vet unitchecker sees.
type module struct {
	fset *token.FileSet
	pkgs []*loadedPackage
}

// modulePath is the path of the module loadModule checks.
const modulePath = "ironman"

// loadModule loads every package of the module rooted at dir (as `go
// vet ./...` would, minus test files). It shells out to the go tool for
// package metadata and export data, then type-checks each module
// package from source.
func loadModule(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	byPath := make(map[string]*listedPackage)
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		byPath[p.ImportPath] = &p
		if p.ImportPath == modulePath || strings.HasPrefix(p.ImportPath, modulePath+"/") {
			targets = append(targets, &p)
		}
	}

	m := &module{fset: token.NewFileSet()}
	imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})
	for _, p := range targets {
		lp, err := checkPackage(m.fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		m.pkgs = append(m.pkgs, lp)
	}
	return m, nil
}

// vet runs the analyzers over every package of the module and returns
// the findings sorted by position.
func (m *module) vet(analyzers []*analysis.Analyzer) []Finding {
	var findings []Finding
	for _, p := range m.pkgs {
		findings = append(findings, RunAnalyzers(m.fset, p.files, p.pkg, p.info, analyzers)...)
	}
	sortFindings(findings)
	return findings
}

func sortFindings(findings []Finding) {
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), a.Pos.Line-b.Pos.Line, strings.Compare(a.Analyzer, b.Analyzer))
	})
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*loadedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %v", err)
	}
	return &loadedPackage{files: files, pkg: pkg, info: info}, nil
}

// newInfo returns a types.Info recording everything an analyzer may ask
// of a Pass.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// RunAnalyzers drives each analyzer over one loaded package,
// collecting diagnostics as findings. Facts are not supported: the
// suite is deliberately package-local.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   map[*analysis.Analyzer]interface{}{},
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
			ReadFile:          os.ReadFile,
			ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportObjectFact:  func(types.Object, analysis.Fact) {},
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		if _, err := a.Run(pass); err != nil {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer error: %v", err),
			})
		}
	}
	return findings
}
