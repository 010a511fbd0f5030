package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"

	"golang.org/x/tools/go/types/objectpath"
)

// deadexport names the module check the package doc describes. A field
// of an unnamed struct type matches by name because identical literal
// struct types declare separate field objects.
const deadexport = "deadexport"

// objKey names an object independently of the type-checker instance
// that produced it: a package is checked from source, but its
// dependents see it through export data. A field of an unnamed struct
// type is keyed by its name alone ("field Name").
type objKey struct {
	pkg  string
	path objectpath.Path
}

// exportDecl is one exported name a package declares.
type exportDecl struct {
	ident  *ast.Ident
	name   string // as reported: Name, Type.Method, Type.Field or field Name
	key    objKey
	method *types.Func // set for methods, which an interface may require
}

// deadExports runs the check over the loaded packages and returns its
// findings, including every //ironman:allow(deadexport) directive that
// suppressed nothing, sorted by position.
func deadExports(fset *token.FileSet, pkgs []*loadedPackage) []Finding {
	enc := new(objectpath.Encoder)
	used := make(map[objKey]bool)
	for _, p := range pkgs {
		markUses(fset, enc, p, used)
	}
	ifaces := interfaceMethods(pkgs)
	var findings []Finding
	for _, p := range pkgs {
		if p.pkg.Name() == "main" || !strings.Contains("/"+p.pkg.Path()+"/", "/internal/") {
			continue
		}
		var files []*ast.File
		for _, f := range p.files {
			if !isTestFile(fset, f.Pos()) {
				files = append(files, f)
			}
		}
		idx := newAllowIndex(fset, files, deadexport, os.ReadFile)
		for _, d := range exportedDecls(enc, p, files) {
			if used[d.key] || d.method != nil && implements(d.method, ifaces) {
				continue
			}
			pos := fset.Position(d.ident.Pos())
			msg := d.name + " is exported but no non-test file references it; delete it or add //ironman:allow(deadexport) <reason>"
			if msg, ok := idx.filter(pos, msg); ok {
				findings = append(findings, Finding{deadexport, pos, msg})
			}
		}
		stale, msg := idx.unused()
		for _, pos := range stale {
			findings = append(findings, Finding{deadexport, fset.Position(pos), msg})
		}
	}
	sortFindings(findings)
	return findings
}

// markUses records every module object a non-test file of p names (a
// positional struct literal names no field).
func markUses(fset *token.FileSet, enc *objectpath.Encoder, p *loadedPackage, used map[objKey]bool) {
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
			if o.IsField() && o.Pkg() != nil {
				used[objKey{o.Pkg().Path(), objectpath.Path("field " + o.Name())}] = true
			}
		}
		if obj.Pkg() == nil {
			return
		}
		if path, err := enc.For(obj); err == nil {
			used[objKey{obj.Pkg().Path(), path}] = true
		}
	}
	for id, obj := range p.info.Uses {
		if !isTestFile(fset, id.Pos()) {
			mark(obj)
		}
	}
}

// exportedDecls lists the exported names the package's files declare at
// top level, with the fields of the struct types declared there.
func exportedDecls(enc *objectpath.Encoder, p *loadedPackage, files []*ast.File) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident, name string, method *types.Func) {
		path, _ := enc.For(p.info.Defs[id])
		out = append(out, exportDecl{id, name, objKey{p.pkg.Path(), path}, method})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				if fd.Recv == nil {
					add(fd.Name, fd.Name.Name, nil)
				} else {
					fn := p.info.Defs[fd.Name].(*types.Func)
					recv := types.TypeString(fn.Type().(*types.Signature).Recv().Type(), func(*types.Package) string { return "" })
					add(fd.Name, strings.TrimPrefix(recv, "*")+"."+fd.Name.Name, fn)
				}
			}
			named := make(map[*ast.StructType]string)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BlockStmt:
					return false // locals are not exported names
				case *ast.TypeSpec:
					if n.Name.IsExported() {
						add(n.Name, n.Name.Name, nil)
					}
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name + "."
					}
				case *ast.ValueSpec:
					for _, id := range n.Names {
						if id.IsExported() {
							add(id, id.Name, nil)
						}
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						for _, id := range fld.Names {
							switch {
							case fld.Tag != nil || !id.IsExported():
							case named[n] != "":
								add(id, named[n]+id.Name, nil)
							default:
								out = append(out, exportDecl{id, "field " + id.Name, objKey{p.pkg.Path(), objectpath.Path("field " + id.Name)}, nil})
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// interfaceMethods returns the method set, as methodKeys, of every
// interface the module can satisfy: those its packages spell out
// (declarations, assertions, constraints), the exported ones of every
// package they import, and error.
func interfaceMethods(pkgs []*loadedPackage) []map[string]bool {
	var out []map[string]bool
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		ms := make(map[string]bool, it.NumMethods())
		for i := 0; i < it.NumMethods(); i++ {
			ms[methodKey(it.Method(i))] = true
		}
		out = append(out, ms)
	}
	add(types.Universe.Lookup("error").Type())
	walked := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if walked[pkg] {
			return
		}
		walked[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// implements reports whether m's receiver type implements, through its
// pointer method set, an interface that has m.
func implements(m *types.Func, ifaces []map[string]bool) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	have := make(map[string]bool, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		have[methodKey(mset.At(i).Obj().(*types.Func))] = true
	}
	key := methodKey(m)
outer:
	for _, it := range ifaces {
		if !it[key] {
			continue
		}
		for k := range it {
			if !have[k] {
				continue outer
			}
		}
		return true
	}
	return false
}

// methodKey renders a method as the spec matches it — its name, qualified
// by package when unexported, and its signature without receiver or
// parameter names — in package-qualified strings, so a receiver and an
// interface from different type-checker instances compare.
func methodKey(f *types.Func) string {
	var b strings.Builder
	if !f.Exported() && f.Pkg() != nil {
		b.WriteString(f.Pkg().Path() + ".")
	}
	b.WriteString(f.Name())
	sig := f.Type().(*types.Signature)
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
