package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"aroma/internal/metrics"
	"aroma/internal/sim"
	"aroma/internal/telemetry"
)

// Row is one completed run: the (cell, replication) coordinates, the
// run's headless result snapshot, its captured narrative output, and
// the determinism digest for reproducibility auditing. Rows marshal
// directly as the JSONL artifact lines.
type Row struct {
	Cell   int               `json:"cell"`
	Label  string            `json:"label,omitempty"`
	Params map[string]string `json:"params,omitempty"`
	// Faults is the cell's fault plan ("" and omitted on clean arms),
	// mirroring what the run's scenario.Config.Faults carried.
	Faults string `json:"faults,omitempty"`
	Rep    int    `json:"rep"`
	Seed   int64  `json:"seed"`

	Name       string             `json:"scenario,omitempty"`
	Digest     string             `json:"digest,omitempty"`
	Steps      uint64             `json:"steps,omitempty"`
	SimTime    sim.Time           `json:"sim_time_ns,omitempty"`
	Findings   int                `json:"findings,omitempty"`
	Issues     int                `json:"issues,omitempty"`
	Violations int                `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`

	WallNS int64  `json:"wall_ns"`
	Output string `json:"output,omitempty"`
	Err    string `json:"err,omitempty"`

	// Telemetry is the run's instrument snapshot (Design.Telemetry).
	// It is excluded from runs.jsonl — series are bulky — and written
	// to the separate metrics.jsonl artifact instead.
	Telemetry *telemetry.Snapshot `json:"-"`

	// Done distinguishes a completed run from a task the sweep never
	// started (cancellation); buildReport drops undone rows.
	Done bool `json:"-"`
}

// Wall returns the run's wall-clock duration.
func (r Row) Wall() time.Duration { return time.Duration(r.WallNS) }

// CellSummary aggregates one grid cell across its replications.
type CellSummary struct {
	Index  int
	Label  string
	Params map[string]string
	// Faults is the cell's fault plan ("" on clean arms).
	Faults string
	// N counts successful replications; Failed counts errored ones.
	N      int
	Failed int
	// Stats holds one streaming summary per metric name, fed in task
	// order (deterministic at any worker count).
	Stats map[string]*metrics.Summary
}

// Report is the outcome of one sweep: every completed row in task
// order, plus per-cell statistics.
type Report struct {
	Name    string
	Workers int
	// Axes preserves the design's axis-name order for artifact columns.
	Axes []string
	// FaultAxis records that the design swept fault plans, so the CSV
	// aggregate carries a faults column even if every arm was clean.
	FaultAxis bool
	// Total is the planned run count; len(Rows) < Total means the sweep
	// was cut short (cancellation or fail-fast).
	Total   int
	Elapsed time.Duration
	Rows    []Row
	Cells   []*CellSummary
}

// FailedCount returns the number of failed rows.
func (r *Report) FailedCount() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Failed
	}
	return n
}

// MetricNames returns the sorted union of metric names across all rows.
func (r *Report) MetricNames() []string { return sortedMetricNames(r.Rows) }

// Table renders the per-cell aggregate as the repo's fixed-width ASCII
// table: one row per cell, "mean ±ci95" per requested metric (all
// metrics when names is empty).
func (r *Report) Table(names ...string) *metrics.Table {
	if len(names) == 0 {
		names = r.MetricNames()
	}
	headers := append([]string{"cell", "n", "failed"}, names...)
	t := metrics.NewTable(fmt.Sprintf("sweep %s: %d cells × %d runs", r.Name, len(r.Cells), r.Total), headers...)
	for _, c := range r.Cells {
		label := c.Label
		if label == "" {
			label = "(single cell)"
		}
		row := []any{label, c.N, c.Failed}
		for _, name := range names {
			s := c.Stats[name]
			if s == nil || s.N() == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4g ±%.2g", s.Mean(), s.CI95()))
		}
		t.AddRow(row...)
	}
	t.AddNote("%d workers, %d/%d runs in %s (%d failed)",
		r.Workers, len(r.Rows), r.Total, r.Elapsed.Round(time.Millisecond), r.FailedCount())
	return t
}

// WriteJSONL writes one JSON object per completed run, in task order.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, row := range r.Rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// HasTelemetry reports whether any row carries an instrument snapshot.
func (r *Report) HasTelemetry() bool {
	for _, row := range r.Rows {
		if row.Telemetry != nil {
			return true
		}
	}
	return false
}

// WriteMetricsJSONL writes one JSON object per telemetry-carrying run,
// in task order: the run's (cell, rep, seed) coordinates plus its full
// instrument snapshot (final values and sim-time series).
func (r *Report) WriteMetricsJSONL(w io.Writer) error {
	type line struct {
		Cell      int                 `json:"cell"`
		Label     string              `json:"label,omitempty"`
		Rep       int                 `json:"rep"`
		Seed      int64               `json:"seed"`
		Telemetry *telemetry.Snapshot `json:"telemetry"`
	}
	enc := json.NewEncoder(w)
	for _, row := range r.Rows {
		if row.Telemetry == nil {
			continue
		}
		l := line{Cell: row.Cell, Label: row.Label, Rep: row.Rep, Seed: row.Seed, Telemetry: row.Telemetry}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the per-cell aggregate: one record per cell with the
// axis values followed by run counts and mean/ci95/min/max per metric.
// Axis columns are prefixed "param_" so an axis named like a fixed or
// metric column can never collide with it.
func (r *Report) WriteCSV(w io.Writer) error {
	names := r.MetricNames()
	axes := r.Axes
	header := make([]string, 0, len(axes)+3+4*len(names))
	for _, a := range axes {
		header = append(header, "param_"+a)
	}
	if r.FaultAxis {
		header = append(header, "faults")
	}
	header = append(header, "n", "failed")
	for _, name := range names {
		header = append(header, name+"_mean", name+"_ci95", name+"_min", name+"_max")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range r.Cells {
		rec := make([]string, 0, len(header))
		for _, a := range axes {
			rec = append(rec, c.Params[a])
		}
		if r.FaultAxis {
			f := c.Faults
			if f == "" {
				f = "none"
			}
			rec = append(rec, f)
		}
		rec = append(rec, strconv.Itoa(c.N), strconv.Itoa(c.Failed))
		for _, name := range names {
			s := c.Stats[name]
			if s == nil || s.N() == 0 {
				rec = append(rec, "", "", "", "")
				continue
			}
			rec = append(rec,
				formatFloat(s.Mean()), formatFloat(s.CI95()),
				formatFloat(s.Min()), formatFloat(s.Max()))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteArtifacts writes the standard artifact set into dir (created if
// missing): runs.jsonl (per-run rows), metrics.jsonl (per-run
// instrument snapshots, when the design enabled telemetry), cells.csv
// (per-cell aggregate), and report.txt (the rendered ASCII table).
func (r *Report) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("sweep: writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("runs.jsonl", r.WriteJSONL); err != nil {
		return err
	}
	if r.HasTelemetry() {
		if err := write("metrics.jsonl", r.WriteMetricsJSONL); err != nil {
			return err
		}
	}
	if err := write("cells.csv", r.WriteCSV); err != nil {
		return err
	}
	return write("report.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, r.Table().Render())
		return err
	})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
