package aroma

import (
	"fmt"
	"hash/fnv"

	"aroma/internal/core"
	"aroma/internal/env"
	"aroma/internal/fault"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/internal/trace"
)

// World is a fully wired five-layer pervasive-computing system: one
// deterministic kernel driving an environment, a shared radio medium, a
// MAC layer, a packet network, and a runtime trace, plus the model
// entities (devices, users, links) the LPC analyzer reasons about.
//
// Create one with NewWorld, populate it with AddDevice / AddUser /
// AddLookup, drive it with RunFor / Step, and classify the outcome with
// Analyze. A World, like the kernel beneath it, is single-threaded.
type World struct {
	opts   worldOptions
	kernel *sim.Kernel
	plan   *geo.FloorPlan
	env    *env.Environment
	medium *radio.Medium
	mac    *mac.MAC
	net    *netsim.Network
	log    *trace.Log
	bus    *Bus

	devices []*Device
	byName  map[string]*Device
	users   []*User
	lookups []*Lookup
	links   []core.Link

	// prov, when set, is the world's build recipe (see Provenance) —
	// the key that makes the world snapshottable.
	prov *Provenance

	// faults, when set, is the armed fault injector (see ApplyFaults /
	// WithFaults): the fault plan's schedule and dedicated RNG stream.
	faults *fault.Injector

	// tel, when set, is the world's instrument registry (see
	// EnableTelemetry); telStop halts its kernel sampler.
	tel     *telemetry.Registry
	telStop func()
}

// NewWorld assembles a world from functional options.
func NewWorld(opts ...Option) *World {
	o := defaultWorldOptions()
	for _, opt := range opts {
		opt(&o)
	}
	k := sim.New(o.seed)
	plan := o.plan
	if plan == nil {
		plan = geo.NewFloorPlan(geo.RectAt(0, 0, o.arenaW, o.arenaH))
	}
	e := env.New(k, plan)
	med := radio.NewMedium(k, e, o.mediumOpts...)
	m := mac.New(med, mac.Config{})
	log := trace.NewForKernel(k)
	log.SetMinSeverity(o.traceMin)
	w := &World{
		opts:   o,
		kernel: k,
		plan:   plan,
		env:    e,
		medium: med,
		mac:    m,
		net:    netsim.New(m),
		log:    log,
		bus:    newBus(),
		byName: make(map[string]*Device),
	}
	log.OnRecord = w.bus.publish
	if !o.faults.Empty() {
		// Options are construction-time misassembly checks, so an invalid
		// plan panics like a duplicate device name would.
		if err := w.ApplyFaults(o.faults); err != nil {
			panic(err)
		}
	}
	return w
}

// Substrate accessors, for scenario code that needs to reach below the
// facade (noise sources, custom radios, raw scheduling).

// Kernel returns the deterministic simulation kernel.
func (w *World) Kernel() *sim.Kernel { return w.kernel }

// Env returns the physical environment (noise, propagation).
func (w *World) Env() *env.Environment { return w.env }

// Plan returns the floor plan.
func (w *World) Plan() *geo.FloorPlan { return w.plan }

// Medium returns the shared radio medium.
func (w *World) Medium() *radio.Medium { return w.medium }

// MAC returns the medium-access layer.
func (w *World) MAC() *mac.MAC { return w.mac }

// Network returns the packet network.
func (w *World) Network() *netsim.Network { return w.net }

// Log returns the runtime trace log.
func (w *World) Log() *trace.Log { return w.log }

// Name returns the world's name.
func (w *World) Name() string { return w.opts.name }

// Seed returns the kernel seed the world was created with.
func (w *World) Seed() int64 { return w.kernel.Seed() }

// Unified run lifecycle.

// Now returns the current virtual time.
func (w *World) Now() sim.Time { return w.kernel.Now() }

// RunFor advances the world d virtual time from the current instant and
// returns the number of events executed.
func (w *World) RunFor(d sim.Time) uint64 { return w.kernel.RunFor(d) }

// RunUntil advances the world to the absolute virtual time t.
func (w *World) RunUntil(t sim.Time) uint64 { return w.kernel.RunUntil(t) }

// Run drains the event queue (until Stop or exhaustion).
func (w *World) Run() uint64 { return w.kernel.Run() }

// Step executes the single earliest pending event; it reports whether an
// event was executed.
func (w *World) Step() bool { return w.kernel.Step() }

// Stop makes the in-flight RunFor/RunUntil/Run return after the current
// event completes. Pending events remain queued.
func (w *World) Stop() { w.kernel.Stop() }

// Schedule queues fn to run after delay d. The returned handle is a
// small value; pass it to the kernel's Cancel to deschedule.
func (w *World) Schedule(d sim.Time, label string, fn func()) sim.Event {
	return w.kernel.Schedule(d, label, fn)
}

// Ticker invokes fn every period until the returned stop function is
// called.
func (w *World) Ticker(period sim.Time, label string, fn func()) (stop func()) {
	return w.kernel.Ticker(period, label, fn)
}

// Close is a no-op kept for callers written against earlier releases,
// whose worlds could hold host resources. A World holds nothing beyond
// memory, so dropping it is enough.
func (w *World) Close() {}

// Events returns the world's typed event bus.
func (w *World) Events() *Bus { return w.bus }

// Subscribe registers fn for every trace event at or above min severity,
// delivered synchronously in record order. It returns a cancel func.
func (w *World) Subscribe(min trace.Severity, fn func(trace.Event)) (cancel func()) {
	return w.bus.Subscribe(min, fn)
}

// Link declares that devices a and b must communicate over the wireless
// medium; Analyze checks the link's feasibility at the environment layer.
func (w *World) Link(a, b string) {
	w.links = append(w.links, core.Link{A: a, B: b})
}

// Devices returns the world's devices in creation order.
func (w *World) Devices() []*Device { return w.devices }

// Users returns the world's users in creation order.
func (w *World) Users() []*User { return w.users }

// Device returns the named device, or nil.
func (w *World) Device(name string) *Device { return w.byName[name] }

// System assembles the current LPC system description: every device and
// user entity, the declared links, the environment, the medium, and the
// runtime trace.
func (w *World) System() *core.System {
	sys := &core.System{
		Name:   w.opts.name,
		Env:    w.env,
		Medium: w.medium,
		Log:    w.log,
		Links:  w.links,
	}
	for _, d := range w.devices {
		sys.AddDevice(d.entity)
	}
	for _, u := range w.users {
		sys.AddUser(u.entity)
	}
	return sys
}

// Analyze runs the LPC analyzer over the world's current state and
// returns the classified report.
func (w *World) Analyze(opts ...core.AnalysisOption) *core.Report {
	return core.AnalyzeWith(w.System(), opts...)
}

// Digest returns a stable hash of the run so far: the seed, the kernel
// step count, the current virtual time, and every recorded trace event in
// record order. Two runs of the same scenario with the same seed must
// produce identical digests; a digest mismatch means nondeterminism has
// crept into the model (see the determinism guarantees in the package
// doc). The digest is cheap enough to compute at every scenario exit.
func (w *World) Digest() string {
	h := fnv.New64a()
	mix := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	mix("seed=%d steps=%d now=%d|", w.kernel.Seed(), w.kernel.Steps(), w.kernel.Now())
	for _, e := range w.log.Events() {
		mix("%d/%d/%d/%s/%s\n", e.At, e.Layer, e.Severity, e.Entity, e.Message())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (w *World) checkName(kind, name string) {
	if name == "" {
		panic(fmt.Sprintf("aroma: %s name must not be empty", kind))
	}
	if _, dup := w.byName[name]; dup {
		panic(fmt.Sprintf("aroma: duplicate %s name %q", kind, name))
	}
}
