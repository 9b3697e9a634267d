// Package telemetry is the per-world instrument registry behind
// World.Telemetry, the aromad /metrics surface, and the sweep metrics
// artifacts.
//
// # Two planes
//
// Instruments live on exactly one of two planes, and the plane decides
// every contract that matters:
//
//   - Sim-plane instruments (Counter, CounterFunc, GaugeFunc) describe
//     the simulated system — frames sent, backoffs, pool occupancy. They
//     are updated and read on the kernel goroutine only, advance only
//     with virtual time, and are sampled into deterministic sim-time
//     series by a kernel-driven sampler. Two runs of the same seed
//     produce bit-identical sim-plane values and series.
//   - Host-plane instruments (HostCounter) describe the machine running
//     the simulation — SSE drops, world failures. They are atomics,
//     safe from any goroutine, and are never sampled into sim-time
//     series.
//
// Neither plane is part of ExportState, Digest, or checkpoint
// Provenance: enabling telemetry cannot perturb a digest, and restoring
// a snapshot recomputes sim-plane values by replay rather than
// deserializing them.
//
// # Hot-path discipline
//
// Counter handles are dense-slot references into the registry's
// backing array: an update is one bounds-checked array write, no map
// lookups and no allocations (BenchmarkTelemetryHotPath gates 0
// allocs/op). The zero-value handle is inert, so model code
// updates unconditionally and worlds without telemetry pay only a nil
// check. Stats that substrates already keep as plain fields are read
// lazily through CounterFunc/GaugeFunc at sample/export time instead of
// being double-counted on the hot path.
//
// # Memory
//
// A registry allocates what it keeps, once. Series are columnar: each
// sampled instrument keeps a values-only column, and each sampling
// cohort — the instruments registered between two Sample calls, which
// are sampled at the same instants and decimated alike — shares one
// sample-time column. A world has one cohort, plus one more when an
// instrument registers after sampling began (a fault plan armed on a
// running world). Reserve sizes every column to the samples the run
// will take before its horizon (at most maxPoints), so sampling never
// regrows a column and decimation compacts each in place. Snapshot
// zips the columns into fresh points, so a snapshot is immutable by
// construction and costs a copy of every series. WritePrometheus caches
// the static part of its output — line order, # TYPE headers, names
// and rendered labels — per common-label set, so a steady-state scrape
// only formats values into a reused buffer.
//
// # Naming scheme
//
// Names are dotted, lowercase, with the Prometheus unit conventions
// applied to the leaf: monotonically increasing counts end in "_total"
// (enforced at registration), gauges are bare nouns. The Prometheus
// exporter maps "kernel.steps_total" to "aroma_kernel_steps_total";
// labels distinguish instruments sharing a name (per-severity trace
// counts, per-kind fault injections).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// maxPoints bounds every sim-time series. When a series fills, it is
// decimated deterministically: every other retained point is dropped
// and the effective sampling stride doubles, so a long run keeps a
// bounded, evenly spaced sketch whose contents depend only on the
// sample sequence (never on wall time or memory pressure).
const maxPoints = 2048

// Label is one name=value pair attached to an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

type kind uint8

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHostCounter
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHostCounter:
		return "host_counter"
	}
	return "unknown"
}

// sampled reports whether the kind is recorded into sim-time series.
func (k kind) sampled() bool {
	switch k {
	case kindCounter, kindCounterFunc, kindGaugeFunc:
		return true
	}
	return false
}

// Point is one sampled (sim-time, value) pair. T is virtual nanoseconds
// since the start of the simulation.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// cohort is one sampling cohort: the sample-time column shared by
// every instrument registered between two Sample calls. Its members
// saw the same samples since registration, so one stride and phase
// decimate them all alike.
type cohort struct {
	t       []int64 // sample times, parallel to every member's values
	stride  uint64  // record every stride-th sample; 1 at registration, doubles on decimation
	phase   uint64  // samples seen since registration; compared against stride
	members []*instrument
}

// sample records one sampler tick at time t for every member. When the
// columns are full it first keeps their odd positions: with the stride
// doubling, the retained points are exactly the samples a fresh series
// with the doubled stride would have kept.
func (c *cohort) sample(r *Registry, t int64) {
	c.phase++
	if c.phase%c.stride != 0 {
		return
	}
	if len(c.t) >= maxPoints {
		c.t = decimate(c.t)
		for _, in := range c.members {
			in.vals = decimate(in.vals)
		}
		c.stride *= 2
	}
	c.t = append(c.t, t)
	for _, in := range c.members {
		in.vals = append(in.vals, r.scalar(in))
	}
}

// decimate keeps a column's odd positions, in place.
func decimate[E any](col []E) []E {
	kept := col[:0]
	for i := 1; i < len(col); i += 2 {
		kept = append(kept, col[i])
	}
	return kept
}

// instrument is one registered metric.
type instrument struct {
	name   string
	labels []Label // sorted by key
	kind   kind
	slot   uint32         // kindCounter: index into the dense array
	cfn    func() uint64  // kindCounterFunc
	gfn    func() float64 // kindGaugeFunc
	hc     *HostCounter
	co     *cohort   // sampled kinds: the cohort whose times vals pairs with
	vals   []float64 // sampled kinds: the value column, parallel to co.t
}

// Registry is a per-world instrument registry.
//
// Registration happens at world construction, on one goroutine, before
// the world runs. Sim-plane updates, Sample, Reserve, and the exporters
// must run on the kernel goroutine (the daemon routes scrapes through
// each world's command loop); host-plane instruments are safe from any
// goroutine. The threading contract above is the synchronization,
// except for WritePrometheus's cached skeleton and buffer: a registry
// holding only host-plane instruments may be scraped from concurrent
// goroutines, so a mutex guards them.
type Registry struct {
	counters []uint64
	insts    []*instrument
	cohorts  []*cohort       // in registration order; the last may not have sampled yet
	names    map[string]bool // identity keys, duplicate registration guard
	reserve  int             // point capacity of every column (Reserve)

	promMu sync.Mutex
	prom   promSkeleton // guarded by promMu
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// identity renders name plus sorted labels; two instruments may share a
// name only when their label sets differ.
func identity(name string, labels []Label) string {
	id := name
	for _, l := range labels {
		id += "\x00" + l.Key + "\x01" + l.Value
	}
	return id
}

func (r *Registry) register(in *instrument) *instrument {
	if in.name == "" {
		panic("telemetry: empty instrument name")
	}
	sort.Slice(in.labels, func(i, j int) bool { return in.labels[i].Key < in.labels[j].Key })
	switch in.kind {
	case kindCounter, kindCounterFunc, kindHostCounter:
		if !hasSuffix(in.name, "_total") {
			panic("telemetry: counter " + in.name + " must end in _total")
		}
	}
	id := identity(in.name, in.labels)
	if r.names[id] {
		panic("telemetry: duplicate instrument " + id)
	}
	r.names[id] = true
	if in.kind.sampled() {
		r.join(in)
	}
	r.insts = append(r.insts, in)
	return in
}

// join adds a sampled instrument to the cohort that has not sampled
// yet, starting one when every cohort already has.
func (r *Registry) join(in *instrument) {
	var c *cohort
	if n := len(r.cohorts); n > 0 && r.cohorts[n-1].phase == 0 {
		c = r.cohorts[n-1]
	} else {
		c = &cohort{stride: 1}
		if r.reserve > 0 {
			c.t = make([]int64, 0, r.reserve)
		}
		r.cohorts = append(r.cohorts, c)
	}
	if cap(c.t) > 0 {
		in.vals = make([]float64, 0, cap(c.t))
	}
	in.co = c
	c.members = append(c.members, in)
}

// Reserve sizes every column for n more points (capped at maxPoints,
// the most a column ever holds), and gives instruments registered later
// the same capacity. Called once with the number of samples a run will
// take before its horizon, it makes sampling allocation-free: a column
// then never regrows, and decimation compacts in place. A run past the
// reserved count just appends, as an unreserved registry does. Reserve
// never shrinks a column.
func (r *Registry) Reserve(n int) {
	r.reserve = min(n, maxPoints)
	for _, c := range r.cohorts {
		size := min(len(c.t)+n, maxPoints)
		if size <= cap(c.t) {
			continue
		}
		c.t = grow(c.t, size)
		for _, in := range c.members {
			in.vals = grow(in.vals, size)
		}
	}
}

// grow returns col copied into a new array of capacity size.
func grow[E any](col []E, size int) []E {
	return append(make([]E, 0, size), col...)
}

// hasSuffix avoids importing strings into the hot-path file's mental
// model; it is strings.HasSuffix.
func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// Counter registers a sim-plane counter and returns its update handle.
// The name must end in "_total".
func (r *Registry) Counter(name string, labels ...Label) Counter {
	slot := uint32(len(r.counters))
	r.counters = append(r.counters, 0)
	r.register(&instrument{name: name, labels: labels, kind: kindCounter, slot: slot})
	return Counter{r: r, slot: slot}
}

// CounterFunc registers a sim-plane counter whose value is read from fn
// at sample and export time. Use it for stats a substrate already keeps
// as a plain field — the hot path pays nothing. fn runs on the kernel
// goroutine. The name must end in "_total".
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	r.register(&instrument{name: name, labels: labels, kind: kindCounterFunc, cfn: fn})
}

// GaugeFunc registers a sim-plane gauge read from fn at sample and
// export time. fn runs on the kernel goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(&instrument{name: name, labels: labels, kind: kindGaugeFunc, gfn: fn})
}

// HostCounter registers a host-plane counter: an atomic, safe from any
// goroutine, excluded from sim-time series. The name must end in
// "_total".
func (r *Registry) HostCounter(name string, labels ...Label) *HostCounter {
	hc := &HostCounter{}
	r.register(&instrument{name: name, labels: labels, kind: kindHostCounter, hc: hc})
	return hc
}

// Sample records the current value of every sampled sim-plane
// instrument into its sim-time series at virtual time atNanos. It must
// run on the kernel goroutine; the world's kernel sampler calls it on a
// fixed virtual-time period.
func (r *Registry) Sample(atNanos int64) {
	for _, c := range r.cohorts {
		c.sample(r, atNanos)
	}
}

// scalar returns an instrument's current value. Sim-plane kinds must be
// read on the kernel goroutine; host kinds are atomic.
func (r *Registry) scalar(in *instrument) float64 {
	switch in.kind {
	case kindCounter:
		return float64(r.counters[in.slot])
	case kindCounterFunc:
		return float64(in.cfn())
	case kindGaugeFunc:
		return in.gfn()
	case kindHostCounter:
		return float64(in.hc.Load())
	}
	return 0
}

// Counter is a dense-slot handle to a sim-plane counter. The zero value
// is inert: updates are no-ops, so model code can update
// unconditionally whether or not telemetry is enabled.
type Counter struct {
	r    *Registry
	slot uint32
}

// Inc adds one.
func (c Counter) Inc() {
	if c.r != nil {
		c.r.counters[c.slot]++
	}
}

// HostCounter is a host-plane atomic counter.
type HostCounter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *HostCounter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Load returns the current count.
func (c *HostCounter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
