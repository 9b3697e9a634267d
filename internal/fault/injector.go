package fault

import (
	"math/rand"

	"aroma/internal/sim"
)

// countingSource wraps the fault plane's private PRNG source and counts
// draws, mirroring the kernel's own audited source: the draw count is
// exported state, so two runs of the same faulted world can prove they
// consumed the fault stream identically.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// Hooks receives the injections at their scheduled instants. Each hook
// is called exactly once per occurrence, from inside a kernel event; a
// nil hook skips that kind (the occurrence still counts as injected).
// Opening and closing the failure window is the hook's job: it runs at
// window start and is expected to schedule the recovery itself, so the
// recovery is an ordinary pending kernel event that mid-window
// checkpoints capture like any other future cause.
type Hooks struct {
	Crash     func(target string, downFor sim.Time)
	RadioDown func(target string, downFor sim.Time)
	Jam       func(lossDB float64, dur sim.Time)
	Partition func(dur sim.Time)
	Outage    func(target string, dur sim.Time)
}

// Injector compiles a Plan onto a kernel's event queue and owns the
// dedicated fault RNG stream. It is single-threaded under the kernel's
// event loop, like everything else in the simulated world.
type Injector struct {
	k    *sim.Kernel
	plan Plan
	seed int64
	src  countingSource
	rng  *rand.Rand

	crashes    uint64
	radioDowns uint64
	jams       uint64
	partitions uint64
	outages    uint64
}

// NewInjector builds an injector for plan, seeding the fault RNG stream
// from seed. The plan must already be valid (Plan.Validate).
func NewInjector(k *sim.Kernel, plan Plan, seed int64) *Injector {
	in := &Injector{k: k, plan: plan, seed: seed}
	in.src.src = rand.NewSource(seed).(rand.Source64)
	in.rng = rand.New(&in.src)
	return in
}

// Plan returns the armed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Intn draws from the fault RNG stream: hooks use it to pick victims so
// target selection is deterministic per seed and never consumes the
// kernel's generator. Panics if n <= 0, matching math/rand.
func (in *Injector) Intn(n int) int { return in.rng.Intn(n) }

// Arm schedules every plan occurrence as a kernel event. Occurrences
// whose fire time has already passed are dropped (arming is normally
// done at time zero, where none have). Call once.
func (in *Injector) Arm(h Hooks) {
	now := in.k.Now()
	for i := range in.plan.Specs {
		s := in.plan.Specs[i]
		for j := 0; j < s.count(); j++ {
			at := s.At + sim.Time(j)*s.Every
			if at < now {
				continue
			}
			spec := s
			in.k.Schedule(at-now, "fault."+string(s.Kind), func() { in.fire(spec, h) })
		}
	}
}

func (in *Injector) fire(s Spec, h Hooks) {
	switch s.Kind {
	case Crash:
		in.crashes++
		if h.Crash != nil {
			h.Crash(s.Target, s.For)
		}
	case RadioDown:
		in.radioDowns++
		if h.RadioDown != nil {
			h.RadioDown(s.Target, s.For)
		}
	case Jam:
		in.jams++
		if h.Jam != nil {
			h.Jam(s.lossDB(), s.For)
		}
	case Partition:
		in.partitions++
		if h.Partition != nil {
			h.Partition(s.For)
		}
	case Outage:
		in.outages++
		if h.Outage != nil {
			h.Outage(s.Target, s.For)
		}
	}
}

// Counts returns the per-kind injection counters.
func (in *Injector) Counts() (crashes, radioDowns, jams, partitions, outages uint64) {
	return in.crashes, in.radioDowns, in.jams, in.partitions, in.outages
}

// Draws returns the number of values consumed from the fault RNG stream.
func (in *Injector) Draws() uint64 { return in.src.draws }

// State is the injector's exported snapshot, embedded in the world's
// canonical state so checkpoint verification covers the fault plane.
// Every field is zero for a fault-free world, keeping the canonical
// JSON of existing worlds byte-identical.
type State struct {
	Plan       string `json:"plan,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Draws      uint64 `json:"draws,omitempty"`
	Crashes    uint64 `json:"crashes,omitempty"`
	RadioDowns uint64 `json:"radio_downs,omitempty"`
	Jams       uint64 `json:"jams,omitempty"`
	Partitions uint64 `json:"partitions,omitempty"`
	Outages    uint64 `json:"outages,omitempty"`
}

// ExportState snapshots the injector.
func (in *Injector) ExportState() State {
	return State{
		Plan:       in.plan.String(),
		Seed:       in.seed,
		Draws:      in.src.draws,
		Crashes:    in.crashes,
		RadioDowns: in.radioDowns,
		Jams:       in.jams,
		Partitions: in.partitions,
		Outages:    in.outages,
	}
}
