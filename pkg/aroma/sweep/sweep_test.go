package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // registry: the real-workload tests use mobiledense
)

// fakeWorld builds a tiny real world: n×10 no-op events on a kernel
// seeded with the replication's seed, so its digest is a pure function
// of (n, seed) and digest-reproducibility properties can be tested
// without simulating radio worlds. Finish narrates one line and records
// the metric "value".
func fakeWorld(cfg scenario.Config) *scenario.Built {
	n := cfg.ParamIntOr("n", 1)
	w := aroma.NewWorld(aroma.WithSeed(cfg.Seed))
	for i := 0; i < n*10; i++ {
		w.Schedule(sim.Time(i)*sim.Millisecond, "tick", func() {})
	}
	return &scenario.Built{World: w, Horizon: sim.Second, Finish: func(res *scenario.Result) {
		cfg.Printf("fake run n=%d seed=%d\n", n, cfg.Seed)
		res.Metric("value", float64(n)*100+float64(cfg.Seed))
	}}
}

// fakeStarted counts fake-slow builds, for the cancellation test.
var fakeStarted atomic.Int32

// The fake scenarios are registered once for the whole test binary.
func init() {
	scenario.Register("fake", "sweep test world", func(cfg scenario.Config) (*scenario.Built, error) {
		return fakeWorld(cfg), nil
	})
	// Cell n=2 detonates in a kernel event mid-run.
	scenario.Register("fake-panic", "sweep test world", func(cfg scenario.Config) (*scenario.Built, error) {
		b := fakeWorld(cfg)
		if cfg.ParamIntOr("n", 0) == 2 {
			b.World.Schedule(5*sim.Millisecond, "detonate", func() { panic("poisoned cell") })
		}
		return b, nil
	})
	// Cell n=1 fails to build.
	scenario.Register("fake-reject", "sweep test world", func(cfg scenario.Config) (*scenario.Built, error) {
		if cfg.ParamIntOr("n", 0) == 1 {
			return nil, fmt.Errorf("cell rejects seed %d", cfg.Seed)
		}
		return fakeWorld(cfg), nil
	})
	// Every build takes 5 ms of wall time.
	scenario.Register("fake-slow", "sweep test world", func(cfg scenario.Config) (*scenario.Built, error) {
		fakeStarted.Add(1)
		time.Sleep(5 * time.Millisecond)
		return fakeWorld(cfg), nil
	})
}

func fakeDesign() Design {
	return Design{
		Scenario: "fake",
		Axes:     []Axis{Ints("n", 1, 2, 3)},
		Reps:     8,
		BaseSeed: 1,
	}
}

func mustRun(t *testing.T, d Design, opts ...Option) *Report {
	t.Helper()
	s, err := New(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// digests is the reproducibility audit map: one entry per successful
// run, keyed "label seed=N", valued by the run's World digest. Two
// sweeps of one design, at any worker counts, must return equal maps.
func digests(r *Report) map[string]string {
	out := make(map[string]string, len(r.Rows))
	for _, row := range r.Rows {
		if row.Err == "" {
			out[fmt.Sprintf("%s seed=%d", row.Label, row.Seed)] = row.Digest
		}
	}
	return out
}

func TestCellsRowMajorOrder(t *testing.T) {
	d := Design{
		Scenario: "fake",
		Axes:     []Axis{Ints("a", 1, 2), {Name: "b", Values: []string{"x", "y", "z"}}},
	}
	cells := d.Cells()
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	wantLabels := []string{
		"a=1 b=x", "a=1 b=y", "a=1 b=z",
		"a=2 b=x", "a=2 b=y", "a=2 b=z",
	}
	for i, c := range cells {
		if c.Index != i || c.Label != wantLabels[i] {
			t.Errorf("cell %d = {Index:%d Label:%q}, want label %q", i, c.Index, c.Label, wantLabels[i])
		}
	}
}

func TestCellsEmptyGrid(t *testing.T) {
	d := Design{Scenario: "fake"}
	cells := d.Cells()
	if len(cells) != 1 || cells[0].Label != "" || len(cells[0].Params) != 0 {
		t.Fatalf("empty grid cells = %+v, want one empty cell", cells)
	}
}

func TestValidateRejectsBadDesigns(t *testing.T) {
	cases := []struct {
		name string
		d    Design
		want string
	}{
		{"no scenario", Design{}, "needs a Scenario"},
		{"unknown scenario", Design{Scenario: "no-such"}, "unknown scenario"},
		{"empty axis name", Design{Scenario: "fake", Axes: []Axis{{Name: "", Values: []string{"x"}}}}, "empty name"},
		{"duplicate axis", Design{Scenario: "fake", Axes: []Axis{Ints("a", 1), Ints("a", 2)}}, "duplicate axis"},
		{"empty axis", Design{Scenario: "fake", Axes: []Axis{{Name: "a"}}}, "no values"},
		{"duplicate value", Design{Scenario: "fake", Axes: []Axis{Ints("a", 5, 5)}}, "repeats value"},
		{"duplicate seed", Design{Scenario: "fake", Seeds: []int64{3, 3}}, "listed twice"},
		{"seed range crosses 0", Design{Scenario: "fake", BaseSeed: -2, Reps: 5}, "crosses 0"},
		{"verbose snapshot", Design{Snapshot: []byte("x"), Verbose: true}, "cannot set Verbose"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want substring %q", err, tc.want)
			}
		})
	}
	good := fakeDesign()
	if err := good.Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	if _, err := New(Design{Scenario: "mobiledense"}); err != nil {
		t.Errorf("registered scenario rejected: %v", err)
	}
}

// TestSeedParamPairsUnique proves the satellite claim: across the whole
// campaign, no two runs ever share a (params, seed) pair — cells reuse
// the same derived seed ladder but differ in params, and within a cell
// every replication has a distinct seed.
func TestSeedParamPairsUnique(t *testing.T) {
	d := Design{
		Scenario: "fake",
		Axes:     []Axis{Ints("a", 1, 2, 3), {Name: "b", Values: []string{"0.5", "1.5"}}},
		Reps:     16,
		BaseSeed: 100,
	}
	rep := mustRun(t, d, WithWorkers(4))
	if len(rep.Rows) != 6*16 {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), 6*16)
	}
	seen := make(map[string]bool)
	for _, row := range rep.Rows {
		key := fmt.Sprintf("%s|%d", row.Label, row.Seed)
		if seen[key] {
			t.Fatalf("duplicate (params, seed) pair %q", key)
		}
		seen[key] = true
	}
}

// TestParallelMatchesSequential is the acceptance criterion on the fake
// worlds: same design at workers=1 and workers=8 yields byte-identical
// world digests and identical per-cell aggregates.
func TestParallelMatchesSequential(t *testing.T) {
	d := fakeDesign()
	seq := mustRun(t, d, WithWorkers(1))
	par := mustRun(t, d, WithWorkers(8))
	assertReportsEquivalent(t, seq, par)
}

// TestMobiledenseSweepDeterminism is the same acceptance criterion on
// the real radio workload: ≥3 grid cells × 8 replications of the
// mobiledense scenario, workers=1 vs a full pool, every per-run digest
// byte-identical and every aggregate equal.
func TestMobiledenseSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication radio sweep in -short mode")
	}
	// The beacon axis pins a period shorter than the horizon (the
	// classic 500 ms stagger could push a seed's first beacon past it,
	// leaving a trivial zero-event run); its single value also exercises
	// one-value axes.
	d := Design{
		Scenario: "mobiledense",
		Axes:     []Axis{Ints("radios", 6, 10, 14), Ints("beacon", 80)},
		Reps:     8,
		BaseSeed: 1,
		Horizon:  200 * sim.Millisecond,
	}
	seq := mustRun(t, d, WithWorkers(1))
	par := mustRun(t, d, WithWorkers(0)) // all cores
	if n := len(seq.Rows); n != 24 {
		t.Fatalf("rows = %d, want 24", n)
	}
	if seq.FailedCount() != 0 || par.FailedCount() != 0 {
		t.Fatalf("failures: seq=%d par=%d", seq.FailedCount(), par.FailedCount())
	}
	// Real-workload sanity: every run produced a real digest, advanced
	// the kernel, and different seeds diverged within each cell.
	perCell := make(map[string]map[string]bool)
	for _, row := range seq.Rows {
		if row.Digest == "" || row.Steps == 0 {
			t.Fatalf("trivial run: %+v", row)
		}
		if perCell[row.Label] == nil {
			perCell[row.Label] = make(map[string]bool)
		}
		perCell[row.Label][row.Digest] = true
	}
	for label, digests := range perCell {
		if len(digests) < 2 {
			t.Errorf("cell %s: all 8 seeds produced one digest %v", label, digests)
		}
	}
	assertReportsEquivalent(t, seq, par)
}

// TestRerunReproducesDigests: running the identical sweep twice must
// reproduce every per-run digest — the reproducibility audit the Report
// records digests for.
func TestRerunReproducesDigests(t *testing.T) {
	d := fakeDesign()
	first := mustRun(t, d, WithWorkers(4))
	second := mustRun(t, d, WithWorkers(2))
	dg1, dg2 := digests(first), digests(second)
	if len(dg1) != len(dg2) || len(dg1) != first.Total {
		t.Fatalf("digest audit sizes: %d vs %d (total %d)", len(dg1), len(dg2), first.Total)
	}
	for k, v := range dg1 {
		if dg2[k] != v {
			t.Errorf("digest for %s: %q vs %q", k, v, dg2[k])
		}
	}
}

// TestRowsMatchDirectRuns: a sweep row is exactly the run its recipe
// names. For a registry design with a fault arm, every row's digest,
// steps, metrics and narration equal a direct scenario.Run at the
// row's seed, params and plan; for a snapshot design, they equal
// checkpoint.ForkBuilt at the row's seed driven to the horizon.
func TestRowsMatchDirectRuns(t *testing.T) {
	assertRowMatches := func(t *testing.T, row Row, res *scenario.Result, out string) {
		t.Helper()
		if out == "" || row.Output != out {
			t.Errorf("row %q seed=%d: output %q; direct run: %q", row.Label, row.Seed, row.Output, out)
		}
		want := map[string]float64{
			"steps":      float64(res.Steps),
			"findings":   float64(res.Findings()),
			"issues":     float64(res.Issues()),
			"violations": float64(res.Violations()),
		}
		for k, v := range res.Metrics {
			want[k] = v
		}
		if row.Err != "" || row.Digest != res.Digest || row.Steps != res.Steps ||
			!reflect.DeepEqual(row.Metrics, want) {
			t.Errorf("row %q seed=%d: err=%q digest=%s steps=%d metrics=%v; direct run: digest=%s steps=%d metrics=%v",
				row.Label, row.Seed, row.Err, row.Digest, row.Steps, row.Metrics, res.Digest, res.Steps, want)
		}
	}

	t.Run("registry", func(t *testing.T) {
		d := Design{
			Scenario: "faultstorm",
			Horizon:  25 * sim.Second,
			Faults:   []string{"none", "jam:at=5s,for=10s,loss=40"},
			Reps:     2,
		}
		rep := mustRun(t, d, WithWorkers(2))
		if len(rep.Rows) != 4 {
			t.Fatalf("rows = %d, want 4", len(rep.Rows))
		}
		for _, row := range rep.Rows {
			var out strings.Builder
			res, err := scenario.Run("faultstorm", scenario.Config{
				Seed: row.Seed, Horizon: d.Horizon, Params: row.Params, Faults: row.Faults, Out: &out,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertRowMatches(t, row, res, out.String())
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		data := warmSnapshot(t)
		rep := mustRun(t, Design{Snapshot: data, Reps: 2, BaseSeed: 100}, WithWorkers(2))
		if len(rep.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rep.Rows))
		}
		for _, row := range rep.Rows {
			var out strings.Builder
			b, err := checkpoint.ForkBuilt(data, row.Seed, &out)
			if err != nil {
				t.Fatal(err)
			}
			b.World.RunUntil(b.Horizon)
			assertRowMatches(t, row, b.Result(), out.String())
		}
	})
}

func assertReportsEquivalent(t *testing.T, a, b *Report) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Label != rb.Label || ra.Seed != rb.Seed || ra.Digest != rb.Digest ||
			ra.Steps != rb.Steps || ra.Err != rb.Err || ra.Output != rb.Output {
			t.Fatalf("row %d differs:\n%+v\nvs\n%+v", i, ra, rb)
		}
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ")
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.N != cb.N || ca.Failed != cb.Failed || len(ca.Stats) != len(cb.Stats) {
			t.Fatalf("cell %d shape differs: %+v vs %+v", i, ca, cb)
		}
		for name, sa := range ca.Stats {
			sb := cb.Stats[name]
			if sb == nil || sa.N() != sb.N() ||
				math.Abs(sa.Mean()-sb.Mean()) > 1e-12 ||
				math.Abs(sa.Var()-sb.Var()) > 1e-9 {
				t.Fatalf("cell %d metric %s differs: %v vs %v", i, name, sa, sb)
			}
		}
	}
}

// TestPanicBecomesFailedRow: one poisoned cell panics out of a kernel
// event on every replication; the sweep (keep-going) survives, reports those rows as
// failed, and completes every other cell.
func TestPanicBecomesFailedRow(t *testing.T) {
	d := Design{
		Scenario: "fake-panic",
		Axes:     []Axis{Ints("n", 1, 2, 3)},
		Reps:     4,
	}
	rep := mustRun(t, d, WithWorkers(4))
	if got := rep.FailedCount(); got != 4 {
		t.Fatalf("failed rows = %d, want 4", got)
	}
	for _, row := range rep.Rows {
		if row.Err == "" {
			continue
		}
		if row.Label != "n=2" || row.Err != "scenario fake-panic: panic: poisoned cell" {
			t.Errorf("unexpected failed row %+v", row)
		}
	}
	for _, c := range rep.Cells {
		if c.Label != "n=2" && (c.N != 4 || c.Failed != 0) {
			t.Errorf("healthy cell %s damaged: %+v", c.Label, c)
		}
	}
}

func TestErrorRowKeepGoingVsFailFast(t *testing.T) {
	d := Design{
		Scenario: "fake-reject",
		Axes:     []Axis{Ints("n", 1, 2)},
		Reps:     6,
	}
	s, err := New(d, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("keep-going must not return an error, got %v", err)
	}
	if rep.FailedCount() != 6 || len(rep.Rows) != 12 {
		t.Fatalf("keep-going: failed=%d rows=%d", rep.FailedCount(), len(rep.Rows))
	}

	s, err = New(d, WithWorkers(1), WithFailFast())
	if err != nil {
		t.Fatal(err)
	}
	rep, err = s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "rejects seed") {
		t.Fatalf("fail-fast must surface the first error, got %v", err)
	}
	if len(rep.Rows) >= rep.Total {
		t.Fatalf("fail-fast ran all %d tasks", rep.Total)
	}
}

func TestContextCancellationStopsPromptly(t *testing.T) {
	fakeStarted.Store(0)
	d := Design{
		Scenario: "fake-slow",
		Axes:     []Axis{Ints("n", 1)},
		Reps:     200,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	s, err := New(d, WithWorkers(2), WithProgress(func(Row) {
		if completed.Add(1) == 3 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if n := len(rep.Rows); n >= 200 || n < 3 {
		t.Fatalf("completed rows = %d; cancellation did not stop the sweep promptly", n)
	}
	if s := fakeStarted.Load(); s >= 200 {
		t.Fatalf("all %d runs started despite cancellation", s)
	}
}

func TestProgressSeesEveryRun(t *testing.T) {
	var calls atomic.Int32
	d := fakeDesign()
	s, err := New(d, WithWorkers(4), WithProgress(func(row Row) {
		if !row.Done {
			t.Error("progress delivered an undone row")
		}
		calls.Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != s.Tasks() {
		t.Fatalf("progress calls = %d, want %d", calls.Load(), s.Tasks())
	}
}

func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	rep := mustRun(t, fakeDesign(), WithWorkers(2))
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}

	// runs.jsonl: one valid JSON object per run, digests intact.
	data, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != rep.Total {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), rep.Total)
	}
	var row Row
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("jsonl line not JSON: %v", err)
	}
	if row.Digest == "" || row.Params["n"] == "" {
		t.Fatalf("jsonl row missing fields: %+v", row)
	}

	// cells.csv: header + one record per cell.
	csvData, err := os.ReadFile(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(csvLines) != 1+len(rep.Cells) {
		t.Fatalf("csv lines = %d, want %d", len(csvLines), 1+len(rep.Cells))
	}
	if !strings.HasPrefix(csvLines[0], "param_n,n,failed,") {
		t.Fatalf("csv header = %q", csvLines[0])
	}
	if !strings.Contains(csvLines[0], "value_mean") || !strings.Contains(csvLines[0], "value_ci95") {
		t.Fatalf("csv header missing metric columns: %q", csvLines[0])
	}

	// report.txt: the rendered table.
	txt, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "sweep fake") || !strings.Contains(string(txt), "n=1") {
		t.Fatalf("report.txt = %q", txt)
	}
}

func TestTableRendersCells(t *testing.T) {
	rep := mustRun(t, fakeDesign(), WithWorkers(2))
	out := rep.Table("value").Render()
	for _, want := range []string{"n=1", "n=2", "n=3", "value"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestParseAxis(t *testing.T) {
	a, err := ParseAxis("radios=100,200, 400")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "radios" || len(a.Values) != 3 || a.Values[2] != "400" {
		t.Fatalf("axis = %+v", a)
	}
	for _, bad := range []string{"", "radios", "=1,2", "radios=", "radios=1,,2"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

func TestExplicitSeedsAllowClassicZero(t *testing.T) {
	d := Design{Scenario: "fake", Seeds: []int64{0, 5}}
	rep := mustRun(t, d, WithWorkers(1))
	if len(rep.Rows) != 2 || rep.Rows[0].Seed != 0 || rep.Rows[1].Seed != 5 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
}

// TestTelemetryArtifact runs a real instrumented sweep and checks the
// metrics.jsonl artifact: one snapshot line per run, instruments
// populated, and runs.jsonl still free of the bulky series.
func TestTelemetryArtifact(t *testing.T) {
	dir := t.TempDir()
	d := Design{
		Scenario:  "mobiledense",
		Seeds:     []int64{7, 42},
		Telemetry: true,
	}
	rep := mustRun(t, d, WithWorkers(2))
	if !rep.HasTelemetry() {
		t.Fatal("Design.Telemetry did not produce snapshots")
	}
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "metrics.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != rep.Total {
		t.Fatalf("metrics.jsonl lines = %d, want %d", len(lines), rep.Total)
	}
	var line struct {
		Seed      int64               `json:"seed"`
		Telemetry *telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("metrics.jsonl line not JSON: %v", err)
	}
	if line.Telemetry == nil || len(line.Telemetry.Instruments) == 0 {
		t.Fatalf("metrics.jsonl line has no instruments: %s", lines[0])
	}
	var v float64
	ok := false
	for _, in := range line.Telemetry.Instruments {
		if in.Name == "kernel.steps_total" {
			v, ok = in.Value, true
			break
		}
	}
	if !ok || v <= 0 {
		t.Fatalf("kernel.steps_total = %v (ok=%v), want > 0", v, ok)
	}

	// The snapshots stay out of runs.jsonl.
	runs, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(runs), `"telemetry"`) {
		t.Error("runs.jsonl embeds telemetry snapshots")
	}
}
