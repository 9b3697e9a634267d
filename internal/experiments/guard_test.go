package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// handBuilt names the constructors of the layers aroma.NewWorld wires
// itself. A driver that calls one is assembling a stack by hand.
var handBuilt = map[string]bool{
	"aroma/internal/env.New":         true,
	"aroma/internal/radio.NewMedium": true,
	"aroma/internal/mac.New":         true,
	"aroma/internal/netsim.New":      true,
}

// bareKernel names the drivers that may run on a sim.New kernel: they
// exercise a session manager (C4) and the user model (C5), which touch
// no medium, MAC or network.
var bareKernel = map[string]bool{"C4": true, "C5": true}

// handBuiltStacks reports every place in f that builds a layer stack or
// an analyzed system by hand instead of through aroma.NewWorld.
func handBuiltStacks(fset *token.FileSet, f *ast.File) []string {
	imports := make(map[string]string) // local name -> import path
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	qualified := func(e ast.Expr) string {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || imports[pkg.Name] == "" {
			return ""
		}
		return imports[pkg.Name] + "." + sel.Sel.Name
	}
	var found []string
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch name := qualified(n.Fun); {
				case handBuilt[name]:
					found = append(found, fset.Position(n.Pos()).String()+": "+name)
				case name == "aroma/internal/sim.New" && !bareKernel[fn]:
					found = append(found, fset.Position(n.Pos()).String()+": "+name+" in "+fn)
				}
			case *ast.CompositeLit:
				if name := qualified(n.Type); name == "aroma/internal/core.System" {
					found = append(found, fset.Position(n.Pos()).String()+": "+name+" literal")
				}
			}
			return true
		})
	}
	return found
}

// TestDriversBuildWorlds keeps the drivers on the one world path: no
// non-test file of this package may build an environment, medium, MAC,
// network or core.System by hand, or run a bare kernel outside C4 and
// C5.
func TestDriversBuildWorlds(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, site := range handBuiltStacks(fset, f) {
			t.Errorf("%s: build the world with aroma.NewWorld and AddDevice/AddLookup/AddUser/Link", site)
		}
	}
	if parsed == 0 {
		t.Fatal("no driver files found")
	}
}

// TestHandBuiltStacksFindsEachForm checks the guard itself on a driver
// that uses every forbidden form, one under an import alias.
func TestHandBuiltStacksFindsEachForm(t *testing.T) {
	const src = `package experiments

import (
	"aroma/internal/core"
	"aroma/internal/env"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	medium "aroma/internal/radio"
	"aroma/internal/sim"
)

func C4(seed int64) { sim.New(seed) }

func C9(seed int64) {
	k := sim.New(seed)
	e := env.New(nil)
	m := mac.New(medium.NewMedium(k, e))
	_ = netsim.New(m)
	_ = &core.System{Name: "by hand"}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "c9.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := handBuiltStacks(fset, f)
	want := []string{
		"c9.go:15:7: aroma/internal/sim.New in C9",
		"c9.go:16:7: aroma/internal/env.New",
		"c9.go:17:7: aroma/internal/mac.New",
		"c9.go:17:15: aroma/internal/radio.NewMedium",
		"c9.go:18:6: aroma/internal/netsim.New",
		"c9.go:19:7: aroma/internal/core.System literal",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("guard found\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
