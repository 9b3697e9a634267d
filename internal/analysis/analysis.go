// Package analysis is a self-contained static-analysis framework in
// the image of golang.org/x/tools/go/analysis, built only on the
// standard library so the repository carries no third-party
// dependencies. It exists to make the simulator's core guarantees —
// bit-identical digests across reruns, allocation-free hot loops, and
// byte-equal checkpoint round-trips — machine-checked properties of
// every build instead of conventions enforced by memory and
// after-the-fact regression tests.
//
// The shape mirrors go/analysis deliberately: an Analyzer bundles a
// name, a doc string, and a Run function over a Pass; a Pass hands the
// analyzer one type-checked package and collects Diagnostics. Should
// x/tools ever become vendorable here, the analyzers port by changing
// imports.
//
// Escape hatches are explicit and auditable. A rule is silenced only
// by an //aroma:<name> directive carrying a one-line justification:
//
//	//aroma:ordered sorted by Src immediately after the loop
//	for src, seq := range s.lastSeq { ... }
//
// A directive with no reason is itself a diagnostic, as is a directive
// naming no known rule — the escape hatch cannot rust silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: its name, what it checks, and
// the function that checks one package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the help text: first line is a one-line summary.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report*; the error return is for analysis failure (broken
	// input), not for findings.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with one type-checked package and
// receives its diagnostics. Fields mirror go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)

	directives map[string][]Directive // filename -> directives, lazily built
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, tied to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Directive is one parsed //aroma:<name> <reason> comment.
type Directive struct {
	Pos    token.Pos
	Name   string // e.g. "ordered"
	Reason string // justification text after the name; must be non-empty
	// Line is the source line the directive suppresses: the directive
	// comment's own line for a trailing comment, or the line below for
	// a comment standing on its own line.
	Line int
}

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "//aroma:"

// KnownDirectives lists every directive name an analyzer in this
// module understands. The directive hygiene analyzer rejects all
// others so a typo cannot silently disable a rule.
var KnownDirectives = map[string]string{
	"ordered":   "maprange: map iteration order provably cannot affect observable state",
	"realtime":  "wallclock: this code legitimately reads host time or global randomness",
	"goroutine": "goroutineguard: this goroutine is an audited, serialized owner of sim state",
	"noexport":  "stateexport: this state field is deliberately absent from ExportState",
	"eagerok":   "eagerfmt: eager formatting here is deliberate and off the hot path",
	"kept":      "deletion guard: this API, function or field stays with no non-test use",
}

// parseDirectives extracts every //aroma: directive in f.
func parseDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, DirectivePrefix)
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(text, " ")
			pos := fset.Position(c.Pos())
			line := pos.Line
			// A directive standing alone on its line governs the line
			// below it; a trailing directive governs its own line.
			if !hasCodeOnLine(fset, f, line, c.Pos()) {
				line++
			}
			out = append(out, Directive{
				Pos:    c.Pos(),
				Name:   name,
				Reason: strings.TrimSpace(reason),
				Line:   line,
			})
		}
	}
	return out
}

// hasCodeOnLine reports whether any non-comment token of f appears on
// the given line before pos (i.e. the directive trails real code).
func hasCodeOnLine(fset *token.FileSet, f *ast.File, line int, pos token.Pos) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		// Only leaf-ish tokens matter; checking every node's start is
		// enough, since any statement on the line starts on it.
		if p := fset.Position(n.Pos()); p.Line == line && n.Pos() < pos {
			found = true
			return false
		}
		return true
	})
	return found
}

// fileDirectives returns (building lazily) the directives of the file
// containing pos.
func (p *Pass) fileDirectives(pos token.Pos) []Directive {
	if p.directives == nil {
		p.directives = make(map[string][]Directive)
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			p.directives[name] = parseDirectives(p.Fset, f)
		}
	}
	return p.directives[p.Fset.Position(pos).Filename]
}

// Suppressed reports whether a diagnostic of the named rule at pos is
// silenced by an //aroma:<name> directive with a non-empty reason on
// the same line (or on a directive-only line immediately above).
// Directives with empty reasons do not suppress; the directive
// analyzer flags them instead.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	line := p.Fset.Position(pos).Line
	for _, d := range p.fileDirectives(pos) {
		if d.Name == name && d.Line == line && d.Reason != "" {
			return true
		}
	}
	return false
}

// Directives returns every //aroma: directive in the package, for the
// hygiene analyzer.
func (p *Pass) Directives() []Directive {
	var out []Directive
	for _, f := range p.Files {
		out = append(out, parseDirectives(p.Fset, f)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// InTestFile reports whether pos lies in a _test.go file. The
// analyzers in this module skip test files: tests legitimately spawn
// goroutines, read wall clocks, and build strings eagerly.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}
