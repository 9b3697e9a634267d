package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample variance of the classic dataset: population var is 4, sample 32/7.
	if want := 32.0 / 7.0; math.Abs(s.Var()-want) > 1e-12 {
		t.Fatalf("Var = %v, want %v", s.Var(), want)
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Observe(3)
	if s.Mean() != 3 || s.Min() != 3 || s.Max() != 3 || s.Var() != 0 {
		t.Fatal("single-observation summary wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T1", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 20)
	tb.AddNote("shape matches paper")
	out := tb.Render()
	if !strings.Contains(out, "== T1 ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "20") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "note: shape matches paper") {
		t.Fatal("missing note")
	}
	// Header and separator line up.
	lines := strings.Split(out, "\n")
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header/separator widths differ:\n%s", out)
	}
}

func TestSeriesMonotoneAndRender(t *testing.T) {
	var s Series
	s.Name, s.XLabel, s.YLabel = "fps", "Mbps", "fps"
	for _, p := range [][2]float64{{1, 30}, {2, 30}, {4, 28}, {8, 10}, {16, 2}} {
		s.Add(p[0], p[1])
	}
	if !s.Monotone(-1, 0.01) {
		t.Fatal("series should be non-increasing")
	}
	if s.Monotone(1, 0.01) {
		t.Fatal("series should not be non-decreasing")
	}
	out := s.Render(20)
	if !strings.Contains(out, "fps vs Mbps") {
		t.Fatalf("render header missing:\n%s", out)
	}
}

// Property: Summary mean/min/max agree with a direct computation.
func TestPropertySummaryAgrees(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Summary
		sum := 0.0
		min, max := clean[0], clean[0]
		for _, x := range clean {
			s.Observe(x)
			sum += x
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		meanOK := math.Abs(s.Mean()-sum/float64(len(clean))) < 1e-6*(1+math.Abs(sum))
		return meanOK && s.Min() == min && s.Max() == max && s.N() == len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95Edges(t *testing.T) {
	var s Summary
	if s.CI95() != 0 {
		t.Error("empty summary CI95 must be 0")
	}
	s.Observe(5)
	if s.CI95() != 0 {
		t.Error("n=1 CI95 must be 0 (no variance estimate)")
	}
	s.Observe(5)
	s.Observe(5)
	if s.CI95() != 0 {
		t.Error("equal observations CI95 must be 0")
	}
	s.Observe(6)
	if s.CI95() <= 0 {
		t.Error("spread observations must widen CI95 above 0")
	}
}
