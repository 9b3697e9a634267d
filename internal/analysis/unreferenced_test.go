package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aroma/internal/analysis"
	"aroma/internal/analysis/load"
)

// TestNoUnreferencedInternalExports keeps dead code out of internal/
// and pkg/: every exported identifier and every function or method must
// be referenced from non-test code somewhere in the root module or the
// nested bench module (which drives the daemon and the client), and
// every unexported struct field must be read there, or carry an
// //aroma:kept directive saying why it stays. Tests alone do not keep
// code alive; what only a test needs belongs in that package's test
// files. A public name no production caller uses is a second way to do
// what another entry point already does, or a knob with one value.
//
// It is a test rather than an aromalint analyzer because go vet hands a
// vettool one package at a time, and a reference from another package
// is exactly what this check has to see.
func TestNoUnreferencedInternalExports(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the root and bench modules via go list -export")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	for _, u := range unreferencedIn(t, root, filepath.Join(root, "bench")) {
		t.Errorf("%s has no use in non-test code: delete it, or mark it //aroma:kept <reason>", u)
	}
}

// TestUnreferencedFixture runs the same scan over a three-package
// fixture module (testdata/unref) and checks exactly the dead code is
// reported: an export nothing mentions, one only a test calls and one
// only it calls itself, a pkg/ function nothing calls, an unexported
// function only a test calls, a field nothing reads and one only a test
// reads; but not an export another package uses, an unexported function
// or method the package calls, one marked //aroma:kept, methods reached
// through a used interface or a standard-library one, nor fields read
// through &x.f or x.f++ or marked //aroma:kept.
func TestUnreferencedFixture(t *testing.T) {
	got := unreferencedIn(t, filepath.Join("testdata", "unref"))
	var names []string
	for _, u := range got {
		names = append(names, u[strings.LastIndex(u, " ")+1:])
	}
	want := []string{
		"unref/internal/lib.Recursive", "unref/internal/lib.TestOnly", "unref/internal/lib.Unused",
		"unref/internal/lib.counter.testRead", "unref/internal/lib.counter.written",
		"unref/internal/lib.testHelper",
		"unref/pkg/facade.Helper", "unref/pkg/facade.WithUnused",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("reported %q, want %q", names, want)
	}
}

// unreferencedIn loads every package of the modules rooted at dirs and
// returns the unreferenced candidates, one "position: name" line each,
// in name order.
func unreferencedIn(t *testing.T, dirs ...string) []string {
	t.Helper()
	var pkgs []*load.Package
	for _, dir := range dirs {
		ps, err := load.Packages(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	// The source files are parsed in this process, so go test's cache
	// already notices an edit to one; reading each directory makes it
	// notice an added file too.
	for _, p := range pkgs {
		if _, err := os.ReadDir(p.Dir); err != nil {
			t.Fatal(err)
		}
	}
	return unreferenced(pkgs)
}

// A candidate is one identifier the scan checks, found in the source of
// the package that declares it.
type candidate struct {
	pos    token.Position
	fset   *token.FileSet
	span   [2]token.Pos // the declaration; references inside it do not count
	named  *types.Named // the receiver type, for methods
	method *types.Func
	kept   bool
}

// unreferenced reports, for the packages under internal/ and pkg/, the
// exported package-level types, constants and variables and the
// functions and methods that no loaded (non-test) code references, and
// the unexported struct fields that it never reads. Objects are matched
// by package path and name, never by identity: a package imported
// through export data gets its own copy of every object it mentions.
// Fields need no such key, since only their own package, checked from
// source, can name them.
func unreferenced(pkgs []*load.Package) []string {
	cands := make(map[string]*candidate)
	fields := make(map[*types.Var]string) // the report line for each
	modules := make(map[string]bool)
	for _, p := range pkgs {
		modules[strings.SplitN(p.ImportPath, "/", 2)[0]] = true
		if path := p.ImportPath + "/"; strings.Contains(path, "/internal/") || strings.Contains(path, "/pkg/") {
			for _, f := range p.Files {
				collectDecls(p, f, cands)
				collectFields(p, f, fields)
			}
		}
	}

	read := make(map[*types.Var]bool)
	used := make(map[string]bool)
	var viaIface []ifaceUse
	for _, p := range pkgs {
		receivers := receiverIdents(p.Files)
		writes := fieldWrites(p.Files)
		for id, obj := range p.TypesInfo.Uses {
			if receivers[id] {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if !writes[id] {
					read[v.Origin()] = true
				}
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				if it, ok := recvInterface(fn); ok {
					viaIface = append(viaIface, ifaceUse{methodSigs(it), fn.Name()})
				}
			}
			k := objectKey(obj)
			if k == "" {
				continue
			}
			if e := cands[k]; e != nil && e.fset == p.Fset && e.span[0] <= id.Pos() && id.Pos() < e.span[1] {
				continue // a declaration mentioning itself
			}
			used[k] = true
		}
		// The standard library calls the methods of its interfaces
		// behind our back (fmt.Stringer, error, json.Marshaler,
		// http.Handler, sort.Interface ...): each of their methods
		// counts as used.
		for _, imp := range p.Pkg.Imports() {
			if modules[strings.SplitN(imp.Path(), "/", 2)[0]] {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					sigs := methodSigs(it)
					for m := range sigs {
						viaIface = append(viaIface, ifaceUse{sigs, m})
					}
				}
			}
		}
	}
	errSigs := methodSigs(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	viaIface = append(viaIface, ifaceUse{errSigs, "Error"})

	var out []string
	for k, e := range cands {
		if e.kept || used[k] {
			continue
		}
		if e.method != nil {
			if te := cands[objectKey(e.named.Obj())]; te != nil && te.kept {
				continue // a kept type keeps its methods
			}
			if implementsUsed(e, viaIface) {
				continue
			}
		}
		out = append(out, fmt.Sprintf("%s: %s", e.pos, k))
	}
	for v, line := range fields {
		if !read[v] {
			out = append(out, line)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][strings.LastIndex(out[i], " ")+1:] < out[j][strings.LastIndex(out[j], " ")+1:]
	})
	return out
}

// addCandidate records id, declared by span, as a candidate and returns
// it; it returns nil for an identifier that is no package-level object
// or method.
func addCandidate(p *load.Package, cands map[string]*candidate, id *ast.Ident, span ast.Node, docs ...*ast.CommentGroup) *candidate {
	k := objectKey(p.TypesInfo.Defs[id])
	if k == "" {
		return nil
	}
	e := &candidate{
		pos:  p.Fset.Position(id.Pos()),
		fset: p.Fset,
		span: [2]token.Pos{span.Pos(), span.End()},
		kept: hasKept(docs...),
	}
	cands[k] = e
	return e
}

// collectDecls records the candidates declared in f: exported
// package-level types, constants and variables, and every function and
// method except init and main.
func collectDecls(p *load.Package, f *ast.File, cands map[string]*candidate) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if name == "_" || name == "init" || (name == "main" && p.Pkg.Name() == "main") {
				continue
			}
			if e := addCandidate(p, cands, d.Name, d, d.Doc); e != nil && d.Recv != nil {
				e.method = p.TypesInfo.Defs[d.Name].(*types.Func)
				e.named = recvNamed(e.method)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						addCandidate(p, cands, s.Name, s, d.Doc, s.Doc)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							addCandidate(p, cands, name, s, d.Doc, s.Doc)
						}
					}
				}
			}
		}
	}
}

// collectFields records the unexported named fields of every struct
// type in f, package-level or local, named or anonymous, except those
// marked //aroma:kept. Embedded fields are left out: they exist for what
// they promote, and a promoted selector does not name them.
func collectFields(p *load.Package, f *ast.File, fields map[*types.Var]string) {
	owner := "struct"
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if _, ok := n.Type.(*ast.StructType); ok {
				owner = n.Name.Name
			}
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				for _, name := range fl.Names {
					v, _ := p.TypesInfo.Defs[name].(*types.Var)
					if v == nil || name.IsExported() || name.Name == "_" || hasKept(fl.Doc) {
						continue
					}
					fields[v] = fmt.Sprintf("%s: %s.%s.%s", p.Fset.Position(name.Pos()), p.ImportPath, owner, name.Name)
				}
			}
			owner = "struct" // a struct nested in this one has no name
		}
		return true
	})
}

// fieldWrites returns the identifiers that write a field without
// reading it: the selector on the left of =, and the key of a composite
// literal. Every other use of a field (x.f++, &x.f, x.f.g = v
// or x.f[i] = v) reads it.
func fieldWrites(files []*ast.File) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					break
				}
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						out[sel.Sel] = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							out[id] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// hasKept reports whether a doc comment carries //aroma:kept with a
// reason. A bare directive keeps nothing (aromadirective flags it).
func hasKept(docs ...*ast.CommentGroup) bool {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if reason, ok := strings.CutPrefix(c.Text, analysis.DirectivePrefix+"kept "); ok && strings.TrimSpace(reason) != "" {
				return true
			}
		}
	}
	return false
}

// receiverIdents returns the identifiers inside method receivers: a
// method naming its own type there is not a use of that type.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						out[id] = true
					}
					return true
				})
			}
		}
	}
	return out
}

// objectKey names a package-level object or a method of a named type
// by package path and name; it returns "" for anything else.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if o.Type().(*types.Signature).Recv() == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		if named := recvNamed(o); named != nil {
			return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() != obj.Pkg().Scope() {
			return "" // fields, locals, parameters
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// recvNamed returns the named type a method is declared on, or nil.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// recvInterface returns the interface fn is a method of, if any.
func recvInterface(fn *types.Func) (*types.Interface, bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	return it, ok
}

// An ifaceUse is one interface method that code calls (or, for the
// standard library, may call): the interface's whole method set, by
// signature string, and the method's name.
type ifaceUse struct {
	sigs map[string]string
	name string
}

// implementsUsed reports whether the method e satisfies a used
// interface method: its type (or a pointer to it) has every method of
// that interface. Signatures compare as strings, which stay equal
// across export-data copies of the same types.
func implementsUsed(e *candidate, uses []ifaceUse) bool {
	var mine map[string]string
	for _, u := range uses {
		if u.name != e.method.Name() {
			continue
		}
		if mine == nil {
			mine = make(map[string]string)
			ms := types.NewMethodSet(types.NewPointer(e.named))
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				mine[fn.Name()] = sigString(fn.Type().(*types.Signature))
			}
		}
		satisfied := true
		for name, sig := range u.sigs {
			if mine[name] != sig {
				satisfied = false
				break
			}
		}
		if satisfied {
			return true
		}
	}
	return false
}

// methodSigs maps each method of an interface to its signature string.
func methodSigs(it *types.Interface) map[string]string {
	out := make(map[string]string, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		out[m.Name()] = sigString(m.Type().(*types.Signature))
	}
	return out
}

// sigString renders a signature's parameter and result types, without
// names or receiver, qualified by full package path.
func sigString(sig *types.Signature) string {
	q := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), q))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
