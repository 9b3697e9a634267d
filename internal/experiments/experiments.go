// Package experiments contains one driver per reproduced element of the
// paper: the five figures (F1–F5), the falsifiable claims from the
// Smart Projector analysis (C1–C10) and two sweep campaigns (S1, S2),
// as indexed by All.
//
// Each driver builds its scenario from the substrates, runs it on a
// seeded kernel, and returns a Result holding the tables/series that
// mirror what the paper reports qualitatively, plus a ShapeOK verdict
// checking the paper's predicted shape (who wins, what collapses, where
// the knee falls). cmd/experiments prints them; bench_test.go wraps each
// in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"

	"aroma/internal/metrics"
)

// Result is one experiment's reproduction output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Series []*metrics.Series
	Notes  []string

	// ShapeOK reports whether the measured shape matches the paper's
	// qualitative claim; ShapeWhy explains the check.
	ShapeOK  bool
	ShapeWhy string
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the full result for the terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s\n%s — %s\n%s\n", strings.Repeat("#", 72), r.ID, r.Title, strings.Repeat("#", 72))
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		b.WriteString(s.Render(40))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	verdict := "MATCHES"
	if !r.ShapeOK {
		verdict = "DOES NOT MATCH"
	}
	fmt.Fprintf(&b, "shape check: %s the paper's claim — %s\n", verdict, r.ShapeWhy)
	return b.String()
}

// Experiment is a named driver.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed int64) *Result
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "LPC model structure and user-column ablation", F1},
		{"F2", "Environment/physical compatibility: range and walls", F2},
		{"F3", "Resource layer: faculties vs device resources", F3},
		{"F4", "Abstract layer: mental model consistency", F4},
		{"F5", "Intentional layer: goal/design harmony", F5},
		{"C1", "Wireless bandwidth vs animation frame rate", C1},
		{"C2", "2.4 GHz device concentration", C2},
		{"C3", "Service discovery and lease self-cleaning", C3},
		{"C4", "Session hijack and forgotten-session reclamation", C4},
		{"C5", "Conceptual burden Monte-Carlo", C5},
		{"C6", "Voice control vs background noise", C6},
		{"C7", "Mobile-code proxy economics", C7},
		{"C8", "RSSI ranging degradation through walls", C8},
		{"C9", "Roaming: projection vs presenter mobility", C9},
		{"C10", "Discovery baselines: centralized lookup vs peer announcement", C10},
		{"S1", "Device concentration campaign (MRIP sweep engine)", S1},
		{"S2", "Snapshot-forked replications from a warm checkpoint", S2},
	}
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			exp := e
			return &exp
		}
	}
	return nil
}
