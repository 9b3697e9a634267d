package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aroma/internal/fault"
	"aroma/internal/sim"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
)

// Axis is one dimension of the parameter grid: a named parameter and
// the values it sweeps over. Values are carried as strings (the
// scenario.Config.Params representation); Ints formats integers
// canonically so equal numbers always collide in the duplicate checks.
type Axis struct {
	Name   string
	Values []string
}

// Ints builds an integer-valued axis.
func Ints(name string, vs ...int) Axis {
	a := Axis{Name: name}
	for _, v := range vs {
		a.Values = append(a.Values, strconv.Itoa(v))
	}
	return a
}

// ParseAxis parses the CLI form "name=v1,v2,v3" into an axis.
func ParseAxis(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return Axis{}, fmt.Errorf("sweep: axis %q is not name=v1,v2,...", s)
	}
	a := Axis{Name: name}
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return Axis{}, fmt.Errorf("sweep: axis %q has an empty value", s)
		}
		a.Values = append(a.Values, v)
	}
	return a, nil
}

// Design declares one experiment campaign: which scenario to run, over
// which parameter grid, with which seeds. The zero value of every
// optional field means "the obvious default" — no axes is a single
// cell, no seeds is Reps=1 from BaseSeed=1.
type Design struct {
	// Scenario names the registered scenario every replication builds.
	// A snapshot-forked campaign (Snapshot) builds nothing, so there it
	// only labels the campaign and may be left empty.
	Scenario string

	// Axes span the parameter grid; the cross-product of their values
	// is the cell set. An empty grid is one cell with no params.
	Axes []Axis

	// Reps is the number of replications per cell; seeds are derived as
	// BaseSeed+0 .. BaseSeed+Reps-1, identical across cells (a cell is
	// distinguished by its params, so (params, seed) pairs stay unique).
	// Reps 0 means 1. BaseSeed 0 means 1 — seed 0 is reserved by
	// scenario.Config for "the scenario's classic seed", so derived
	// ranges must never touch it.
	Reps     int
	BaseSeed int64

	// Seeds, when non-empty, is the explicit per-cell seed list and
	// overrides Reps/BaseSeed. Unlike derived seeds, an explicit 0 is
	// allowed and means the scenario's classic seed.
	Seeds []int64

	// Horizon and Verbose pass through to every run's scenario.Config.
	// A snapshot-forked campaign narrates at the Verbose its snapshot
	// was built with, which is part of the recipe the fork replays, so
	// it may not set Verbose.
	Horizon sim.Time
	Verbose bool

	// Telemetry, when true, enables each replication's instrument
	// registry and sim-time sampler (scenario.Config.Metrics). Each
	// successful run's snapshot rides on its Row and is written as the
	// metrics.jsonl artifact next to runs.jsonl. Telemetry is pure
	// observation: digests and cell statistics are identical with it on
	// or off.
	Telemetry bool

	// Faults, when non-empty, is a fault-plan pseudo-axis: each value is
	// an internal/fault plan string (the alias "none" is the clean
	// control arm) and the cell grid is crossed with it, so every
	// parameter cell runs once per plan. Unlike a Params axis, the plan
	// reaches the run as scenario.Config.Faults — part of the workload
	// recipe, stamped into each world's provenance. Arms pass through
	// verbatim, so "none" stays distinguishable from an absent plan: a
	// scenario with its own default storm (faultstorm) treats "none" as
	// an explicit disarm, not as "use the default". Replication seeds are
	// identical across the fault arms, so a metric delta between "none"
	// and a plan at equal seeds is attributable to the faults alone.
	Faults []string

	// Snapshot, when non-nil, is a pkg/aroma/checkpoint image and turns
	// the campaign into snapshot-forked replications: instead of a cold
	// build, every replication restores the snapshot and forks it with
	// its seed (restore + reseed at the snapshot instant), then runs to
	// the horizon. The replications share their entire history up to the
	// snapshot and diverge only in post-fork randomness — warm-start
	// variance isolation. Axes must be empty (the world is already
	// built; only the seed can vary); Scenario, if empty, is
	// labeled from the snapshot's recipe. Horizon 0 means the snapshot's
	// scenario horizon.
	Snapshot []byte
}

// Cell is one point of the parameter grid.
type Cell struct {
	// Index is the cell's position in row-major grid order (first axis
	// slowest, the fault pseudo-axis innermost). Rows and aggregates
	// keep this order at any worker count.
	Index int
	// Params maps axis name to this cell's value.
	Params map[string]string
	// Faults is this cell's fault arm, verbatim ("" only for a design
	// without a fault axis; the clean arm carries the literal "none").
	// It is deliberately not a Params entry: plans flow through
	// scenario.Config.Faults, not the scenario's parameter namespace.
	Faults string
	// Label is the canonical "a=1 b=x" rendering, in axis order, with a
	// trailing "faults=<plan>" when the design sweeps fault plans.
	Label string
}

// label renders params in the design's axis order (stable, readable).
func (d *Design) label(params map[string]string) string {
	parts := make([]string, 0, len(d.Axes))
	for _, a := range d.Axes {
		parts = append(parts, a.Name+"="+params[a.Name])
	}
	return strings.Join(parts, " ")
}

// seeds returns the resolved per-cell seed list.
func (d *Design) seeds() []int64 {
	if len(d.Seeds) > 0 {
		return d.Seeds
	}
	reps := d.Reps
	if reps <= 0 {
		reps = 1
	}
	base := d.BaseSeed
	if base == 0 {
		base = 1
	}
	out := make([]int64, reps)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Cells enumerates the grid in row-major order (first axis slowest),
// crossed with the fault pseudo-axis as the innermost dimension: for
// every parameter cell, one cell per Design.Faults value.
func (d *Design) Cells() []Cell {
	total := 1
	for _, a := range d.Axes {
		total *= len(a.Values)
	}
	// A design without the pseudo-axis is a single implicit arm that
	// leaves Config.Faults empty (the scenario's own default applies).
	arms := d.Faults
	if len(arms) == 0 {
		arms = []string{""}
	}
	cells := make([]Cell, 0, total*len(arms))
	idx := make([]int, len(d.Axes))
	for i := 0; i < total; i++ {
		params := make(map[string]string, len(d.Axes))
		for ai, a := range d.Axes {
			params[a.Name] = a.Values[idx[ai]]
		}
		label := d.label(params)
		for _, arm := range arms {
			c := Cell{Index: len(cells), Params: params, Label: label}
			if len(d.Faults) > 0 {
				// Verbatim, so "none" explicitly disarms a scenario that
				// would otherwise apply a default plan to an empty Faults.
				c.Faults = arm
				armLabel := arm
				if armLabel == "" {
					armLabel = "none"
				}
				if c.Label != "" {
					c.Label += " "
				}
				c.Label += "faults=" + armLabel
			}
			cells = append(cells, c)
		}
		for ai := len(d.Axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(d.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells
}

// Validate checks the design is runnable and collision-free: the
// scenario resolves, every axis is non-empty with a unique name and
// unique values (so no two cells can ever share a params set, and
// therefore no two runs share a (params, seed) pair), the seed set has
// no duplicates, and a derived seed range never crosses the reserved
// seed 0.
func (d *Design) Validate() error {
	if d.Snapshot != nil {
		// Snapshot-forked mode: the snapshot is the workload; Scenario is
		// only a label. The image must decode and its recipe must name a
		// scenario registered here, or every replication would fail
		// identically.
		if len(d.Axes) > 0 {
			return fmt.Errorf("sweep: a snapshot-forked campaign cannot have axes — the world is already built, only seeds vary")
		}
		if len(d.Faults) > 0 {
			return fmt.Errorf("sweep: a snapshot-forked campaign cannot sweep fault plans — the restored world's plan is fixed by its provenance")
		}
		if d.Verbose {
			return fmt.Errorf("sweep: a snapshot-forked campaign cannot set Verbose — the restored world narrates as its provenance says")
		}
		img, err := checkpoint.Decode(d.Snapshot)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if _, ok := scenario.Get(img.Provenance.Scenario); !ok {
			return fmt.Errorf("sweep: snapshot scenario %q is not registered here", img.Provenance.Scenario)
		}
	} else if d.Scenario == "" {
		return fmt.Errorf("sweep: design needs a Scenario name or a Snapshot")
	} else if _, ok := scenario.Get(d.Scenario); !ok {
		return fmt.Errorf("sweep: unknown scenario %q (registered: %v)", d.Scenario, scenario.Names())
	}
	seen := make(map[string]bool, len(d.Axes))
	for _, a := range d.Axes {
		if a.Name == "" {
			return fmt.Errorf("sweep: axis with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		vals := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if vals[v] {
				return fmt.Errorf("sweep: axis %q repeats value %q — two cells would share a (params, seed) pair", a.Name, v)
			}
			vals[v] = true
		}
	}
	if len(d.Faults) > 0 {
		arms := make(map[string]bool, len(d.Faults))
		for _, arm := range d.Faults {
			plan, err := fault.Parse(arm)
			if err != nil {
				return fmt.Errorf("sweep: fault arm %q: %w", arm, err)
			}
			// Deduplicate on the canonical form, so "none", "", and a
			// reordered spelling of the same plan all collide.
			key := plan.String()
			if arms[key] {
				return fmt.Errorf("sweep: fault arm %q repeats plan %q — two cells would share a (params, seed) pair", arm, key)
			}
			arms[key] = true
		}
	}
	if len(d.Seeds) > 0 {
		dup := make(map[int64]bool, len(d.Seeds))
		for _, s := range d.Seeds {
			if dup[s] {
				return fmt.Errorf("sweep: seed %d listed twice — replications would collide", s)
			}
			dup[s] = true
		}
	} else {
		for _, s := range d.seeds() {
			if s == 0 {
				return fmt.Errorf("sweep: derived seed range %d..+%d crosses 0, which scenario.Config reserves for the classic seed", d.BaseSeed, d.Reps-1)
			}
		}
	}
	return nil
}

// sortedMetricNames returns the sorted union of metric names across a
// set of per-run metric maps — the stable column order for tables/CSV.
func sortedMetricNames(rows []Row) []string {
	set := make(map[string]bool)
	for i := range rows {
		for name := range rows[i].Metrics {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
