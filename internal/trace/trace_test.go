package trace

import (
	"strings"
	"testing"

	"aroma/internal/sim"
)

func TestLayerStrings(t *testing.T) {
	want := []string{"Environment", "Physical", "Resource", "Abstract", "Intentional"}
	layers := Layers()
	if len(layers) != 5 {
		t.Fatalf("Layers() returned %d layers", len(layers))
	}
	for i, l := range layers {
		if l.String() != want[i] {
			t.Errorf("layer %d = %q, want %q", i, l.String(), want[i])
		}
		if !l.Valid() {
			t.Errorf("layer %v not valid", l)
		}
	}
	if Layer(99).Valid() {
		t.Error("Layer(99) claims to be valid")
	}
	if !strings.Contains(Layer(99).String(), "99") {
		t.Error("unknown layer string should include its number")
	}
}

func TestSeverityStrings(t *testing.T) {
	if Debug.String() != "DEBUG" || Violation.String() != "VIOLATION" {
		t.Fatal("severity names wrong")
	}
	if !strings.Contains(Severity(42).String(), "42") {
		t.Fatal("unknown severity string should include its number")
	}
}

func TestRecordAndQuery(t *testing.T) {
	k := sim.New(1)
	l := NewForKernel(k)
	k.Schedule(sim.Second, "a", func() {
		l.Issue(Physical, "projector", "low bandwidth: %d kbps", 800)
	})
	k.Schedule(2*sim.Second, "b", func() {
		l.Violation(Abstract, "user", "mental model diverged")
	})
	k.Schedule(3*sim.Second, "c", func() {
		l.Info(Environment, "room", "noise %d dB", 55)
	})
	for k.Step() {
	}

	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].At != sim.Second || evs[1].At != 2*sim.Second {
		t.Fatal("timestamps wrong")
	}
	if got := l.ByLayer(Physical); len(got) != 1 || !strings.Contains(got[0].Message(), "800") {
		t.Fatalf("ByLayer(Physical) = %v", got)
	}
	if got := l.BySeverity(Issue); len(got) != 2 {
		t.Fatalf("BySeverity(Issue) returned %d", len(got))
	}
	counts := l.CountByLayer(Info)
	if counts[Environment] != 1 || counts[Physical] != 1 || counts[Abstract] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Issue(Physical, "x", "y") // must not panic
	l.SetMinSeverity(Violation) // must not panic
	l.Reset()                   // must not panic
	if l.Len() != 0 || l.Events() != nil || l.Render(Debug) != "" {
		t.Fatal("nil log not inert")
	}
	if got := l.ByLayer(Physical); got != nil {
		t.Fatal("nil log ByLayer not nil")
	}
	if got := l.CountByLayer(Debug); len(got) != 0 {
		t.Fatal("nil log CountByLayer not empty")
	}
}

func TestMinSeverityFilter(t *testing.T) {
	l := New(nil)
	l.SetMinSeverity(Issue)
	l.Info(Physical, "x", "dropped")
	l.Issue(Physical, "x", "kept")
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestRenderFiltersBySeverity(t *testing.T) {
	l := New(nil)
	l.Info(Resource, "dev", "fine")
	l.Violation(Resource, "dev", "frustrated")
	out := l.Render(Violation)
	if strings.Contains(out, "fine") {
		t.Fatal("render included low-severity event")
	}
	if !strings.Contains(out, "frustrated") || !strings.Contains(out, "VIOLATION") {
		t.Fatalf("render missing violation:\n%s", out)
	}
}

func TestReset(t *testing.T) {
	l := New(nil)
	l.Issue(Physical, "x", "y")
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestNilClockStampsZero(t *testing.T) {
	l := New(nil)
	l.Issue(Physical, "x", "y")
	if l.Events()[0].At != 0 {
		t.Fatal("nil clock should stamp zero")
	}
}

// TestFilteredRecordZeroAllocs is the hot-loop contract: a record that
// the minimum-severity filter discards must allocate nothing, for
// Record itself and for every severity wrapper, so model code can trace
// unconditionally from the innermost simulation loops.
func TestFilteredRecordZeroAllocs(t *testing.T) {
	l := New(nil)
	l.SetMinSeverity(Violation) // everything below is filtered out
	cases := map[string]func(){
		"Record": func() { l.Record(Physical, Debug, "dev", "dropped frame") },
		"Issue":  func() { l.Issue(Physical, "dev", "dropped frame") },
		"Info":   func() { l.Info(Physical, "dev", "dropped frame") },
		"nil log": func() {
			var nl *Log
			nl.Record(Physical, Violation, "dev", "dropped frame")
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s (filtered, no args): %.1f allocs/op, want 0", name, allocs)
		}
	}
	if l.Len() != 0 {
		t.Fatal("filtered events were kept")
	}
}

// TestNoArgFastPathSkipsFormatting: events recorded without arguments
// carry the string itself; ones with arguments defer formatting to the
// first Message read and then memoize it.
func TestNoArgFastPathSkipsFormatting(t *testing.T) {
	l := New(nil)
	l.Issue(Physical, "dev", "plain 100%s message") // no args: kept verbatim
	l.Issue(Physical, "dev", "formatted %d", 42)
	evs := l.Events()
	if got := evs[0].Message(); got != "plain 100%s message" {
		t.Fatalf("no-arg message = %q, want the raw string", got)
	}
	if got := evs[1].Message(); got != "formatted 42" {
		t.Fatalf("lazy message = %q, want formatted", got)
	}
	// Memoized: repeated reads return the same string.
	if a, b := evs[1].Message(), evs[1].Message(); a != b {
		t.Fatalf("repeated reads differ: %q vs %q", a, b)
	}
}

// TestKeptNoArgRecordAllocsBounded: a kept no-argument record performs
// no formatting-related allocation — only the (amortized) events-slice
// growth, which stays well under one alloc per record.
func TestKeptNoArgRecordAllocsBounded(t *testing.T) {
	l := New(nil)
	// Pre-grow the backing array so append growth doesn't dominate.
	for i := 0; i < 4096; i++ {
		l.Issue(Physical, "dev", "warm")
	}
	l.Reset()
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Issue(Physical, "dev", "dropped frame")
	}); allocs != 0 {
		t.Errorf("kept no-arg Issue: %.1f allocs/op, want 0 after warmup", allocs)
	}
}
