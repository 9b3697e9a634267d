package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aroma/internal/metrics"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
)

// Option configures a Sweep.
type Option func(*Sweep)

// WithWorkers sets the worker-pool size; n <= 0 means GOMAXPROCS (all
// cores the runtime will schedule on).
func WithWorkers(n int) Option {
	return func(s *Sweep) { s.workers = n }
}

// WithFailFast makes the first failed run stop the sweep: no new runs
// start, in-flight runs finish, and Run returns the first error. The
// default is keep-going — every run executes, failures become failed
// rows in the report, and Run returns a nil error.
func WithFailFast() Option {
	return func(s *Sweep) { s.failFast = true }
}

// WithProgress installs a callback invoked once per completed run with
// its Row. Calls are serialized — the callback may print — but arrive
// in completion order, not task order; use Row.Cell/Row.Rep to label.
func WithProgress(fn func(Row)) Option {
	return func(s *Sweep) { s.progress = fn }
}

// Sweep is a compiled, validated design bound to its execution options.
type Sweep struct {
	design   Design
	cells    []Cell
	seeds    []int64
	workers  int
	failFast bool
	progress func(Row)
}

// New validates the design and compiles its grid.
func New(d Design, opts ...Option) (*Sweep, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Snapshot != nil && d.Scenario == "" {
		// Label the campaign from the snapshot's recipe (Validate just
		// proved it decodes).
		if img, err := checkpoint.Decode(d.Snapshot); err == nil {
			d.Scenario = img.Provenance.Scenario + "+fork"
		}
	}
	s := &Sweep{design: d, cells: d.Cells(), seeds: d.seeds()}
	for _, opt := range opts {
		opt(s)
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	return s, nil
}

// Tasks returns the planned run count: cells × replications.
func (s *Sweep) Tasks() int { return len(s.cells) * len(s.seeds) }

// CellCount returns the number of grid cells.
func (s *Sweep) CellCount() int { return len(s.cells) }

// SeedCount returns the number of replications per cell.
func (s *Sweep) SeedCount() int { return len(s.seeds) }

// Workers returns the resolved worker-pool size.
func (s *Sweep) Workers() int { return s.workers }

// Run executes the campaign on the worker pool and aggregates the
// report. Task order (cell-major, then replication) is fixed: rows and
// per-cell statistics are identical at any worker count, because runs
// share nothing and aggregation happens in task order after the pool
// drains. Cancelling ctx stops new runs promptly (in-flight runs finish
// — a scenario run is not preemptible) and returns ctx.Err() alongside
// the partial report.
func (s *Sweep) Run(ctx context.Context) (*Report, error) {
	total := s.Tasks()
	rows := make([]Row, total)
	start := time.Now()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	tasks := make(chan int)
	go func() {
		defer close(tasks)
		for i := 0; i < total; i++ {
			select {
			case tasks <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // serializes progress + first-error capture
		firstErr error
	)
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range tasks {
				row := s.runOne(ti)
				rows[ti] = row // each ti is owned by exactly one worker
				mu.Lock()
				if row.Err != "" && firstErr == nil {
					firstErr = fmt.Errorf("sweep: run %s seed=%d: %s", row.Label, row.Seed, row.Err)
					if s.failFast {
						cancel()
					}
				}
				if s.progress != nil {
					s.progress(row)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	rep := s.buildReport(rows, time.Since(start))
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if s.failFast && firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}

// runOne executes one (cell, replication) task in full isolation: its
// own Config, its own output buffer, its own World, driven to the
// horizon by scenario.Drive.
func (s *Sweep) runOne(ti int) Row {
	cell := s.cells[ti/len(s.seeds)]
	rep := ti % len(s.seeds)
	seed := s.seeds[rep]

	var buf bytes.Buffer
	cfg := scenario.Config{
		Seed:    seed,
		Horizon: s.design.Horizon,
		Verbose: s.design.Verbose,
		Out:     &buf,
		Params:  cell.Params,
		Metrics: s.design.Telemetry,
		Faults:  cell.Faults,
	}
	t0 := time.Now()
	b, err := s.build(cfg)
	var res *scenario.Result
	if err == nil {
		res, err = scenario.Drive(s.design.Scenario, b)
	}
	row := Row{
		Cell:   cell.Index,
		Label:  cell.Label,
		Params: cell.Params,
		Faults: cell.Faults,
		Rep:    rep,
		Seed:   seed,
		WallNS: time.Since(t0).Nanoseconds(),
		Done:   true,
	}
	row.Output = buf.String()
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Name = res.Name
	row.Telemetry = res.Telemetry
	row.Digest = res.Digest
	row.Steps = res.Steps
	row.SimTime = res.SimTime
	row.Findings, row.Issues, row.Violations = res.Findings(), res.Issues(), res.Violations()
	// The aggregate stream: the deterministic built-ins, then the
	// scenario-recorded observables — written second so a scenario that
	// deliberately records a reserved name (steps, findings, ...) wins
	// rather than being silently overwritten. Wall time deliberately
	// stays out — cell statistics must be identical at any worker
	// count, and wall time is the one number that is not.
	row.Metrics = make(map[string]float64, len(res.Metrics)+4)
	row.Metrics["steps"] = float64(res.Steps)
	row.Metrics["findings"] = float64(row.Findings)
	row.Metrics["issues"] = float64(row.Issues)
	row.Metrics["violations"] = float64(row.Violations)
	for k, v := range res.Metrics {
		row.Metrics[k] = v
	}
	return row
}

// build makes one replication's world: a fresh scenario.Build for a
// registry design, or, for a snapshot design, the design's checkpoint
// restored and reseeded with the replication's seed at the snapshot
// instant (checkpoint.ForkBuilt — restore is verified bit-identical
// before the fork). Forked replications therefore share their whole
// pre-snapshot history and differ only in post-fork randomness; each
// narrates to its own cfg.Out, replayed history included.
func (s *Sweep) build(cfg scenario.Config) (*scenario.Built, error) {
	if s.design.Snapshot == nil {
		return scenario.Build(s.design.Scenario, cfg)
	}
	b, err := checkpoint.ForkBuilt(s.design.Snapshot, cfg.Seed, cfg.Out)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.design.Scenario, err)
	}
	if cfg.Horizon != 0 {
		b.Horizon = cfg.Horizon
	}
	if cfg.Metrics {
		b.EnableTelemetry()
	}
	return b, nil
}

// buildReport folds completed rows, in task order, into per-cell
// summaries.
func (s *Sweep) buildReport(rows []Row, elapsed time.Duration) *Report {
	rep := &Report{
		Name:    s.design.Scenario,
		Workers: s.workers,
		Total:   len(rows),
		Elapsed: elapsed,
	}
	for _, a := range s.design.Axes {
		rep.Axes = append(rep.Axes, a.Name)
	}
	rep.FaultAxis = len(s.design.Faults) > 0
	cellOf := make([]*CellSummary, len(s.cells))
	for i, c := range s.cells {
		cellOf[i] = &CellSummary{Index: c.Index, Label: c.Label, Params: c.Params, Faults: c.Faults}
		rep.Cells = append(rep.Cells, cellOf[i])
	}
	for _, row := range rows {
		if !row.Done {
			continue // cancelled before this task started
		}
		rep.Rows = append(rep.Rows, row)
		cs := cellOf[row.Cell]
		if row.Err != "" {
			cs.Failed++
			continue
		}
		cs.N++
		if cs.Stats == nil {
			cs.Stats = make(map[string]*metrics.Summary)
		}
		for name, v := range row.Metrics {
			sum := cs.Stats[name]
			if sum == nil {
				sum = &metrics.Summary{}
				cs.Stats[name] = sum
			}
			sum.Observe(v)
		}
	}
	return rep
}
