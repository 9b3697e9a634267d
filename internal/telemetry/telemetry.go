// Package telemetry is the per-world instrument registry behind
// World.Telemetry, the aromad /metrics surface, and the sweep metrics
// artifacts.
//
// # Two planes
//
// Instruments live on exactly one of two planes, and the plane decides
// every contract that matters:
//
//   - Sim-plane instruments (CounterFunc, GaugeFunc) describe the
//     simulated system — frames sent, backoffs, pool occupancy. They
//     are read on the kernel goroutine only, advance only with virtual
//     time, and are sampled into deterministic sim-time series by a
//     kernel-driven sampler. Two runs of the same seed produce
//     bit-identical sim-plane values and series.
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
// The registry holds no sim-plane state of its own: every sim-plane
// instrument reads, at sample and export time, a stat field the model
// already keeps — the kernel's step count, the medium's frame counts,
// the trace bus's per-severity record counts. The hot path pays
// nothing for telemetry, a world without it pays nothing either, and a
// value never depends on when telemetry was enabled.
//
// # Memory
//
// A registry allocates what it keeps, once. Series are columnar: each
// sampled instrument keeps a values-only column, and all of them share
// one sample-time column, with one stride and one phase — every
// instrument registers before the first Sample, so all see the same
// samples and decimate alike. Reserve sizes every column to the samples
// the run will take before its horizon (at most maxPoints), so sampling
// never regrows a column and decimation compacts each in place.
// Snapshot zips the columns into fresh points, so a snapshot is
// immutable by construction and costs a copy of every series.
// AppendPrometheus caches the static part of its output — line order,
// # TYPE headers, names and rendered labels — per common-label set, so
// a steady-state scrape only formats values into the caller's slice.
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
	kindCounterFunc kind = iota
	kindGaugeFunc
	kindHostCounter
)

func (k kind) String() string {
	switch k {
	case kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHostCounter:
		return "host_counter"
	}
	return "unknown"
}

// sampled reports whether the kind is recorded into sim-time series.
func (k kind) sampled() bool { return k != kindHostCounter }

// Point is one sampled (sim-time, value) pair. T is virtual nanoseconds
// since the start of the simulation.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
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
	cfn    func() uint64  // kindCounterFunc
	gfn    func() float64 // kindGaugeFunc
	hc     *HostCounter
	vals   []float64 // sampled kinds: the value column, parallel to Registry.t
}

// Registry is a per-world instrument registry.
//
// Registration happens at world construction, on one goroutine, before
// the first Sample: every sampled instrument then sees the same
// samples, so one time column, one stride and one phase serve them all,
// and a registration after the first Sample panics. Sim-plane reads,
// Sample, Reserve, and the exporters must run on the kernel goroutine
// (the daemon routes scrapes through each world's command loop);
// host-plane instruments are safe from any goroutine. The threading
// contract above is the synchronization, except for AppendPrometheus's
// cached skeleton: a registry holding only host-plane instruments may
// be scraped from concurrent goroutines, so a mutex guards it.
type Registry struct {
	insts []*instrument
	names map[string]bool // identity keys, duplicate registration guard

	// t is the sample-time column every sampled instrument's vals pairs
	// with. Sample records every stride-th tick; phase counts the ticks
	// seen, so a registry whose phase is not 0 has sampled.
	t      []int64
	stride uint64
	phase  uint64

	promMu sync.Mutex
	prom   promSkeleton // guarded by promMu
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{names: make(map[string]bool), stride: 1}
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
	if in.kind != kindGaugeFunc && !hasSuffix(in.name, "_total") {
		panic("telemetry: counter " + in.name + " must end in _total")
	}
	id := identity(in.name, in.labels)
	if r.names[id] {
		panic("telemetry: duplicate instrument " + id)
	}
	if r.phase != 0 {
		panic("telemetry: instrument " + id + " registered after the first sample")
	}
	r.names[id] = true
	if in.kind.sampled() && cap(r.t) > 0 {
		in.vals = make([]float64, 0, cap(r.t))
	}
	r.insts = append(r.insts, in)
	return in
}

// Reserve sizes every column for n more points (capped at maxPoints,
// the most a column ever holds), and gives instruments registered later
// the same capacity. Called once with the number of samples a run will
// take before its horizon, it makes sampling allocation-free: a column
// then never regrows, and decimation compacts in place. A run past the
// reserved count just appends, as an unreserved registry does. Reserve
// never shrinks a column.
func (r *Registry) Reserve(n int) {
	size := min(len(r.t)+n, maxPoints)
	if size <= cap(r.t) {
		return
	}
	r.t = grow(r.t, size)
	for _, in := range r.insts {
		if in.kind.sampled() {
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
// fixed virtual-time period. When the columns are full it first keeps
// their odd positions: with the stride doubling, the retained points are
// exactly the samples a fresh series with the doubled stride would have
// kept.
func (r *Registry) Sample(atNanos int64) {
	r.phase++
	if r.phase%r.stride != 0 {
		return
	}
	if len(r.t) >= maxPoints {
		r.t = decimate(r.t)
		for _, in := range r.insts {
			in.vals = decimate(in.vals)
		}
		r.stride *= 2
	}
	r.t = append(r.t, atNanos)
	for _, in := range r.insts {
		if in.kind.sampled() {
			in.vals = append(in.vals, r.scalar(in))
		}
	}
}

// scalar returns an instrument's current value. Sim-plane kinds must be
// read on the kernel goroutine; host kinds are atomic.
func (r *Registry) scalar(in *instrument) float64 {
	switch in.kind {
	case kindCounterFunc:
		return float64(in.cfn())
	case kindGaugeFunc:
		return in.gfn()
	case kindHostCounter:
		return float64(in.hc.Load())
	}
	return 0
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
