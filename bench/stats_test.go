package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
		{[]float64{2.5, 2.5, 2.5, 9.75}, 2.5, 7.9375},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{7, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
	// IQR 5.5 over median 5.5.
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		p        float64
		want     float64
		resolved bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 990, false}, // only 9 above
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{1, 0.9, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.resolved {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.resolved)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is resolved")
	}
}

func TestBounds(t *testing.T) {
	eps := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "op_mean_ms", Better: "lower", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		m    metricDef
		a, b float64
		want bool
	}{
		{eps, 100, 91, false},
		{eps, 100, 89, true},
		{eps, 100, 150, false},
		{lat, 10, 10.9, false},
		{lat, 10, 11.1, true},
		{lat, 10, 5, false},
		// +40%, but 0.04 s is inside the set-up floor.
		{setup, 0.10, 0.14, false},
		// +20% and 0.2 s: a regression.
		{setup, 1.0, 1.2, true},
		{setup, 1.0, 1.05, false},
	} {
		if got := exceeds(c.m, c.a, c.b); got != c.want {
			t.Errorf("exceeds(%s, %v, %v) = %v, want %v", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	eps := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		as, bs []float64
		want   string
	}{
		{"same", steady, scale(steady, 1.02), agreeV},
		{"slower", steady, scale(steady, 0.8), exceedsV},
		{"faster", steady, scale(steady, 1.3), agreeV},
		{"noisy", noisy, scale(noisy, 0.98), unresolvedV},
		{"noisy but every run faster", steady, scale(noisy, 2), agreeV},
		{"no runs", nil, steady, unresolvedV},
	} {
		if got := verdict(eps, c.as, c.bs); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
