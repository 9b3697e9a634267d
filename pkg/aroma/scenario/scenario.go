// Package scenario is a registry of named, reusable Aroma workloads.
//
// A scenario is a world builder: it assembles a world through the
// pkg/aroma facade at virtual time zero, schedules its whole workload,
// and supplies a Finish hook that narrates to cfg.Out and fills the
// Result (sim time, event count, and the LPC report when the scenario
// analyzes one). Registering it by name makes it runnable from anywhere
// — cmd/aromasim runs any registered scenario by flag and runs them
// all in turn for comparison tables — and, because the builder rebuilds
// the world to any instant, snapshottable (pkg/aroma/checkpoint). The
// stock scenarios live in pkg/aroma/scenarios; importing that package
// (usually blank) populates the registry.
package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"aroma/internal/core"
	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/internal/trace"
)

// Config parametrizes one scenario run.
//
// Capture safety: a Config never touches process-global state — all
// narrative output flows through Out, and Build defaults a nil Out to
// io.Discard explicitly, never to os.Stdout. Two runs driven
// concurrently with distinct writers (the sweep engine gives every run
// a private buffer) therefore cannot interleave a single byte of each
// other's output.
type Config struct {
	// Seed for the deterministic kernel; 0 means the scenario's classic
	// seed (the one its original example shipped with).
	Seed int64
	// Horizon bounds the simulated duration; 0 means the scenario's
	// default.
	Horizon sim.Time
	// Verbose asks the scenario for its full trace / extra detail.
	Verbose bool
	// Out receives the scenario's narrative output; nil discards it
	// (headless runs). Each concurrent run must have its own writer.
	Out io.Writer
	// Params carries named scenario parameters — one grid cell of a
	// sweep, or -set flags from the CLI. Scenarios read them through the
	// typed accessors ParamIntOr and ParamFloatOr and fall back to their classic
	// constants when a name is absent. The map is shared read-only
	// across the replications of a cell; scenarios must not mutate it.
	Params map[string]string
	// Metrics, when true, enables the world's telemetry registry and
	// sim-time sampler (Built.EnableTelemetry).
	// Telemetry is pure observation, not part of the workload: digests
	// are bit-identical with it on or off, and it is absent from the
	// world's Provenance.
	Metrics bool
	// Faults, when non-empty, arms a deterministic fault plan on the
	// scenario's world (internal/fault grammar, e.g.
	// "crash:at=10s,for=5s;jam:at=15s,for=10s,loss=30"). Unlike
	// Metrics, faults change what happens in the world — injections
	// are kernel events and their trace records enter the digest — so
	// the plan IS part of the workload: Build stamps it into the world's
	// Provenance and checkpoint replay re-arms it. Same seed + same plan
	// → bit-identical digests; a builder that arms its own default plan
	// may consult Faults first (see the faultstorm scenario).
	Faults string
}

// ParamIntOr returns the named parameter as an int, or def when unset.
// A set-but-malformed value panics: a typo in a sweep axis must surface
// as that run's error (Run recovers panics), not silently run the
// default workload and poison the aggregate.
func (c Config) ParamIntOr(name string, def int) int {
	v, ok := c.Params[name]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(fmt.Sprintf("scenario: param %s=%q is not an int", name, v))
	}
	return n
}

// ParamFloatOr returns the named parameter as a float64, or def when
// unset. A set-but-malformed value panics, as with ParamIntOr; so does
// NaN or ±Inf, which strconv parses but no world dimension, speed or
// power can take.
func (c Config) ParamFloatOr(name string, def float64) float64 {
	v, ok := c.Params[name]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("scenario: param %s=%q is not a finite float", name, v))
	}
	return f
}

// Printf writes formatted narrative output; a nil Out discards it.
func (c Config) Printf(format string, args ...any) {
	if c.Out == nil {
		return
	}
	fmt.Fprintf(c.Out, format, args...)
}

// Println writes one narrative line; a nil Out discards it.
func (c Config) Println(args ...any) {
	if c.Out == nil {
		return
	}
	fmt.Fprintln(c.Out, args...)
}

// SeedOr returns the configured seed, or def when unset.
func (c Config) SeedOr(def int64) int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return def
}

// HorizonOr returns the configured horizon, or def when unset.
func (c Config) HorizonOr(def sim.Time) sim.Time {
	if c.Horizon != 0 {
		return c.Horizon
	}
	return def
}

// Result summarizes one scenario run.
type Result struct {
	Name    string
	Seed    int64
	SimTime sim.Time
	Steps   uint64
	// Digest is a stable hash of the run (trace record order, step
	// count, virtual time); Built.Result sets it from World.Digest. Equal
	// seeds must yield equal digests — the determinism regression suite
	// enforces it.
	Digest string
	// Report is the scenario's LPC analysis, when it performs one.
	Report *core.Report
	// Metrics is the headless snapshot of the run: named numeric
	// observables (frames delivered, probes heard, ...) recorded with
	// Metric. The sweep engine aggregates these across replications, so
	// anything a scenario narrates as a number worth comparing should
	// also land here.
	Metrics map[string]float64
	// Telemetry is the world's instrument snapshot at the end of the
	// run, when the run had telemetry enabled (Config.Metrics): every
	// instrument's final value plus the sampled sim-time series. Drive
	// sets it; Built.Result leaves it nil.
	Telemetry *telemetry.Snapshot
}

// Metric records one named observable on the result.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Findings returns the number of report findings (0 without a report).
func (r *Result) Findings() int {
	if r == nil || r.Report == nil {
		return 0
	}
	return len(r.Report.Findings)
}

// Issues returns the number of findings at Issue severity or above.
func (r *Result) Issues() int {
	if r == nil || r.Report == nil {
		return 0
	}
	return r.Report.CountBySeverity(trace.Issue)
}

// Violations returns the number of Violation-severity findings.
func (r *Result) Violations() int {
	if r == nil || r.Report == nil {
		return 0
	}
	return len(r.Report.Violations())
}

// Scenario is one registry entry.
type Scenario struct {
	Name        string
	Description string
	Build       BuildFunc
}

var registry = make(map[string]Scenario)

// Register adds a scenario under a unique name: build assembles its
// world and schedules the whole workload; the returned Built's Finish
// computes the result once the caller has driven the world. Register
// panics on an empty name, a nil builder, or a duplicate —
// registration happens in package init, where misuse is a programming
// error.
func Register(name, description string, build BuildFunc) {
	if name == "" {
		panic("scenario: empty name")
	}
	if build == nil {
		panic("scenario: nil builder for " + name)
	}
	if _, dup := registry[name]; dup {
		panic("scenario: duplicate registration of " + name)
	}
	registry[name] = Scenario{Name: name, Description: description, Build: build}
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns the named scenario and whether it exists.
func Get(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// All returns every registered scenario, sorted by name.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// Run builds the named scenario and drives its world to the horizon
// (Drive). Build names the scenario in its own errors, so they are
// returned as they are.
func Run(name string, cfg Config) (*Result, error) {
	b, err := Build(name, cfg)
	if err != nil {
		return nil, err
	}
	return Drive(name, b)
}

// Drive runs a built world to its horizon and returns its Result, named
// name. It is the one way a scenario world is run to completion: Run
// drives a fresh Build with it, and the sweep engine drives every
// replication — built or forked from a snapshot — with it too. A panic
// out of the run (the stock scenarios' must-style assertions) is
// recovered and returned as an error naming the scenario once, so a
// batch survives one bad world. The world's narration goes to the
// writer it was built with; Build has already defaulted a nil Out to
// io.Discard. A world with telemetry enabled gets its instrument
// snapshot at the horizon as Result.Telemetry.
func Drive(name string, b *Built) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("scenario %s: panic: %v", name, r)
		}
	}()
	b.World.RunUntil(b.Horizon)
	res = b.Result()
	res.Name = name
	if reg := b.World.Telemetry(); reg != nil {
		res.Telemetry = reg.Snapshot(int64(b.World.Now()))
	}
	return res, nil
}
