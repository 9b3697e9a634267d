// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against // want comments, in the image of
// golang.org/x/tools/go/analysis/analysistest (stdlib-only, like the
// rest of the framework).
//
// A testdata package lives in testdata/src/<name>/ and is an ordinary
// Go package; the go tool ignores testdata directories, so these
// packages compile only under this harness. Expected diagnostics are
// written on the offending line:
//
//	for k := range m { // want `map iteration`
//
// Each backquoted or double-quoted string after "// want" is a regular
// expression; every diagnostic on a line must match one expectation on
// that line and every expectation must be matched exactly once.
// Testdata may import both the standard library and this module's own
// packages (e.g. aroma/internal/trace): imports resolve through
// compiler export data produced by `go list -export`.
package analysistest

import (
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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aroma/internal/analysis"
	"aroma/internal/analysis/load"
)

// Run loads testdata/src/<pkg> for each named package (relative to the
// calling test's directory), applies the analyzer, and reports any
// mismatch between diagnostics and // want expectations as test
// errors. It returns the diagnostics per package for extra assertions.
//
//aroma:kept test harness shared by every analyzer package's tests, which cannot import a _test.go file
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) map[string][]analysis.Diagnostic {
	t.Helper()
	out := make(map[string][]analysis.Diagnostic, len(pkgs))
	for _, pkg := range pkgs {
		out[pkg] = runOne(t, a, pkg, true)
	}
	return out
}

// Diagnostics runs the analyzer over one testdata package and returns
// the raw diagnostics without // want checking — for analyzers (like
// the directive auditor) whose findings sit on comment lines that
// cannot also carry a want expectation.
//
//aroma:kept test harness shared by every analyzer package's tests, which cannot import a _test.go file
func Diagnostics(t *testing.T, a *analysis.Analyzer, pkg string) []analysis.Diagnostic {
	t.Helper()
	return runOne(t, a, pkg, false)
}

func runOne(t *testing.T, a *analysis.Analyzer, pkgName string, checkWant bool) []analysis.Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkgName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: reading testdata package: %v", pkgName, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkgName, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files in %s", pkgName, dir)
	}

	info := load.NewInfo()
	conf := &types.Config{Importer: exportImporter{fset}}
	tpkg, err := conf.Check(pkgName, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking testdata: %v", pkgName, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s failed: %v", pkgName, a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	if checkWant {
		checkWants(t, fset, files, pkgName, diags)
	}
	return diags
}

// A key addresses one source line.
type key struct {
	file string
	line int
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// checkWants diffs diagnostics against // want expectations.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, pkgName string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, pat := range splitQuoted(t, pkgName, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: %s: bad want pattern %q: %v", pkgName, pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil // each expectation matches once
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s: unexpected diagnostic: %s", pkgName, pos, d.Message)
		}
	}
	var leftover []string
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				leftover = append(leftover, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
			}
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Errorf("%s: %s", pkgName, l)
	}
}

// splitQuoted parses the space-separated quoted regexps after "want".
func splitQuoted(t *testing.T, pkgName string, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		q := s[0]
		if q != '"' && q != '`' {
			t.Fatalf("%s: %s: want expectation must be quoted: %q", pkgName, pos, s)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("%s: %s: unterminated want pattern: %q", pkgName, pos, s)
		}
		raw := s[:end+2]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			t.Fatalf("%s: %s: bad want pattern %s: %v", pkgName, pos, raw, err)
		}
		out = append(out, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// exportImporter resolves testdata imports — stdlib or this module's
// packages — through `go list -export`, caching export-data paths
// across all tests in the process.
type exportImporter struct{ fset *token.FileSet }

var (
	exportMu    sync.Mutex
	exportPaths = make(map[string]string) // import path -> export file
	imported    = make(map[string]*types.Package)
)

func (ei exportImporter) Import(path string) (*types.Package, error) {
	exportMu.Lock()
	defer exportMu.Unlock()
	if pkg, ok := imported[path]; ok {
		return pkg, nil
	}
	comp := importer.ForCompiler(ei.fset, "gc", func(p string) (io.ReadCloser, error) {
		file, err := exportFileLocked(p)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	pkg, err := comp.Import(path)
	if err != nil {
		return nil, err
	}
	imported[path] = pkg
	return pkg, nil
}

func exportFileLocked(path string) (string, error) {
	if file, ok := exportPaths[path]; ok {
		return file, nil
	}
	// One -deps listing primes the cache for the whole closure.
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	out, err := cmd.Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		return "", fmt.Errorf("go list -export %s: %v\n%s", path, err, msg)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var lp struct{ ImportPath, Export string }
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
		if lp.Export != "" {
			exportPaths[lp.ImportPath] = lp.Export
		}
	}
	file, ok := exportPaths[path]
	if !ok {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return file, nil
}
