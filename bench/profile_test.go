package main

import (
	"path/filepath"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"aroma/internal/radio.(*Medium).deliver":       "radio",
		"aroma/internal/mac.(*Station).csWait-fm":      "mac",
		"aroma/internal/analysis/load.Packages":        "other",
		"aroma/pkg/aroma.(*World).Digest":              "aroma",
		"aroma/pkg/aroma/checkpoint.Snapshot":          "checkpoint",
		"aroma/pkg/aroma/scenarios.buildLab.func3":     "scenario",
		"aroma/pkg/aroma/sweep.(*Sweep).Run.func2":     "other",
		"encoding/json.(*encodeState).marshal":         "json",
		"net/http.(*conn).serve":                       "http",
		"net/http/httptest.(*Server).wrap.func1":       "http",
		"main.(*serviceFixture).session":               "other",
		"math.archLog":                                 "math",
		"math/rand.(*Rand).Int63":                      "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"gcWriteBarrier":                               "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":   "other",
		"sort.Slice":                                      "other",
		"aroma/internal/sim.(*Kernel).RunUntil":           "sim",
		"aroma/internal/telemetry.(*Registry).Snapshot":   "telemetry",
		"aroma/internal/daemon.(*Server).handleRun.func1": "daemon",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAddTop(t *testing.T) {
	const listing = `File: aromabench
Type: alloc_space
Showing nodes accounting for 1000B, 100% of 1000B total
      flat  flat%   sum%        cum   cum%
      600B 60.00% 60.00%       600B 60.00%  aroma/internal/telemetry.(*series).add (inline)
      500B 50.00%   110%       700B 70.00%  aroma/internal/radio.(*Medium).linkGain
     -100B -10.00%  100%      -100B -10.00%  runtime.malg
         0     0%   100%       100B 10.00%  aroma/internal/sim.(*Kernel).fire
`
	got := map[string]float64{}
	if err := addTop(got, listing, "B"); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"telemetry": 600, "radio": 500, "runtime": -100, "sim": 0}
	if len(got) != len(want) {
		t.Fatalf("addTop = %v, want %v", got, want)
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("addTop[%s] = %v, want %v", m, got[m], v)
		}
	}
	if err := addTop(got, "no table here\n", "B"); err == nil {
		t.Error("addTop accepted a listing without a table")
	}
}

var sink [][]byte

// TestPprofTotals reads an allocation profile of this process through
// go tool pprof, less itself: the difference must be empty.
func TestPprofTotals(t *testing.T) {
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	sink = nil
	path := filepath.Join(t.TempDir(), "alloc.pprof")
	if err := writeAllocProfile(path); err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	if err := pprofTotals(totals, "alloc_space", "B", path, ""); err != nil {
		t.Fatal(err)
	}
	if totals["other"] <= 0 {
		t.Errorf("no allocation by the test itself: %v", totals)
	}
	sh := shares(totals, modules)
	var sum float64
	for _, m := range modules {
		sum += sh[m]
	}
	if !near(sum, 1) {
		t.Errorf("alloc shares sum to %v, want 1", sum)
	}
	diff := map[string]float64{}
	if err := pprofTotals(diff, "alloc_space", "B", path, path); err != nil {
		t.Fatal(err)
	}
	for m, v := range diff {
		if v != 0 {
			t.Errorf("profile less itself: %s = %v", m, v)
		}
	}
}
