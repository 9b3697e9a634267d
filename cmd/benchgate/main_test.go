package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRatioGateSet(t *testing.T) {
	var g ratioGates
	for _, v := range []string{"BenchmarkA/BenchmarkB<=0.6", " BenchmarkC / BenchmarkD <= 2 "} {
		if err := g.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	want := ratioGates{{"BenchmarkA", "BenchmarkB", 0.6}, {"BenchmarkC", "BenchmarkD", 2}}
	if len(g) != len(want) || g[0] != want[0] || g[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", g, want)
	}
	if s := g.String(); s != "BenchmarkA/BenchmarkB<=0.6,BenchmarkC/BenchmarkD<=2" {
		t.Fatalf("String() = %q", s)
	}
	for _, bad := range []string{
		"", "BenchmarkA/BenchmarkB", "BenchmarkA<=1", "/BenchmarkB<=1", "BenchmarkA/<=1",
		"A/B/C<=1", "A/B<=", "A/B<=x", "A/B<=0", "A/B<=-1", "A/B<=NaN", "A/B<=Inf",
	} {
		if err := new(ratioGates).Set(bad); err == nil {
			t.Errorf("Set(%q) accepted a malformed bound", bad)
		}
	}
}

func TestRunGateRatios(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec Record) string {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", Record{Benchmarks: []Result{{Name: "BenchmarkFast", NsPerOp: 100}}})
	cur := write("cur.json", Record{Benchmarks: []Result{
		{Name: "BenchmarkFast", NsPerOp: 40},
		{Name: "BenchmarkSlow", NsPerOp: 100},
	}})
	limits := gateLimits{nsPct: 15, allocsAbs: 8, allocsPct: 5}
	for _, tc := range []struct {
		gate string
		want bool
	}{
		{"BenchmarkFast/BenchmarkSlow<=0.5", true},
		{"BenchmarkFast/BenchmarkSlow<=0.4", true}, // the bound is inclusive
		{"BenchmarkFast/BenchmarkSlow<=0.3", false},
		{"BenchmarkSlow/BenchmarkFast<=2", false},
		{"BenchmarkFast/BenchmarkGone<=9", false}, // a missing side fails
	} {
		var g ratioGates
		if err := g.Set(tc.gate); err != nil {
			t.Fatal(err)
		}
		ok, err := runGate(base, cur, limits, "", g)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("%s: gate passed=%v, want %v", tc.gate, ok, tc.want)
		}
	}
}
