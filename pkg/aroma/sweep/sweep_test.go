package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // registry: the real-workload tests use mobiledense
)

// fakeScenario is a cheap, fully deterministic stand-in: its "digest"
// is a pure function of (params, seed), so digest-reproducibility
// properties can be tested without simulating radio worlds.
func fakeScenario(cfg scenario.Config) (*scenario.Result, error) {
	n := cfg.ParamIntOr("n", 1)
	cfg.Printf("fake run n=%d seed=%d\n", n, cfg.Seed)
	res := &scenario.Result{
		Seed:   cfg.Seed,
		Steps:  uint64(n) * 10,
		Digest: fmt.Sprintf("fake-%d-%d", n, cfg.Seed),
	}
	res.Metric("value", float64(n)*100+float64(cfg.Seed))
	return res, nil
}

func fakeDesign() Design {
	return Design{
		Scenario: "fake",
		Func:     fakeScenario,
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

func TestCellsRowMajorOrder(t *testing.T) {
	d := Design{
		Func: fakeScenario,
		Axes: []Axis{Ints("a", 1, 2), Strings("b", "x", "y", "z")},
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
	d := Design{Func: fakeScenario}
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
		{"empty axis name", Design{Func: fakeScenario, Axes: []Axis{Strings("", "x")}}, "empty name"},
		{"duplicate axis", Design{Func: fakeScenario, Axes: []Axis{Ints("a", 1), Ints("a", 2)}}, "duplicate axis"},
		{"empty axis", Design{Func: fakeScenario, Axes: []Axis{{Name: "a"}}}, "no values"},
		{"duplicate value", Design{Func: fakeScenario, Axes: []Axis{Ints("a", 5, 5)}}, "repeats value"},
		{"duplicate seed", Design{Func: fakeScenario, Seeds: []int64{3, 3}}, "listed twice"},
		{"seed range crosses 0", Design{Func: fakeScenario, BaseSeed: -2, Reps: 5}, "crosses 0"},
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
		Func:     fakeScenario,
		Axes:     []Axis{Ints("a", 1, 2, 3), Floats("b", 0.5, 1.5)},
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
// workload: same design at workers=1 and workers=8 yields byte-identical
// digests and identical per-cell aggregates.
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
	dg1, dg2 := first.Digests(), second.Digests()
	if len(dg1) != len(dg2) || len(dg1) != first.Total {
		t.Fatalf("digest audit sizes: %d vs %d (total %d)", len(dg1), len(dg2), first.Total)
	}
	for k, v := range dg1 {
		if dg2[k] != v {
			t.Errorf("digest for %s: %q vs %q", k, v, dg2[k])
		}
	}
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

// TestPanicBecomesFailedRow: one poisoned cell panics on every
// replication; the sweep (keep-going) survives, reports those rows as
// failed, and completes every other cell.
func TestPanicBecomesFailedRow(t *testing.T) {
	d := Design{
		Func: func(cfg scenario.Config) (*scenario.Result, error) {
			if cfg.ParamIntOr("n", 0) == 2 {
				panic("poisoned cell")
			}
			return fakeScenario(cfg)
		},
		Axes: []Axis{Ints("n", 1, 2, 3)},
		Reps: 4,
	}
	rep := mustRun(t, d, WithWorkers(4))
	if got := rep.FailedCount(); got != 4 {
		t.Fatalf("failed rows = %d, want 4", got)
	}
	for _, row := range rep.Failed() {
		if row.Label != "n=2" || !strings.Contains(row.Err, "poisoned") {
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
		Func: func(cfg scenario.Config) (*scenario.Result, error) {
			if cfg.ParamIntOr("n", 0) == 1 {
				return nil, fmt.Errorf("cell rejects seed %d", cfg.Seed)
			}
			return fakeScenario(cfg)
		},
		Axes: []Axis{Ints("n", 1, 2)},
		Reps: 6,
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
	var started atomic.Int32
	d := Design{
		Func: func(cfg scenario.Config) (*scenario.Result, error) {
			started.Add(1)
			time.Sleep(5 * time.Millisecond)
			return fakeScenario(cfg)
		},
		Axes: []Axis{Ints("n", 1)},
		Reps: 200,
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
	if s := started.Load(); s >= 200 {
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
	d := Design{Func: fakeScenario, Seeds: []int64{0, 5}}
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
