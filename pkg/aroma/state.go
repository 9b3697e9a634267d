package aroma

import (
	"encoding/json"

	"aroma/internal/discovery"
	"aroma/internal/env"
	"aroma/internal/fault"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// ForkPoint records one Reseed applied to a world mid-run: at virtual
// time At, the kernel's random stream was restarted with Seed. A
// world's fork lineage is the ordered list of these points; replaying
// the build and re-applying each reseed at its recorded instant
// reproduces the world bit-identically.
type ForkPoint struct {
	At   sim.Time `json:"at"`
	Seed int64    `json:"seed"`
}

// Provenance is a world's build recipe: which registered scenario
// assembled it, under which configuration, and the fork lineage applied
// since. A world carrying provenance can be rebuilt from nothing —
// which is what makes it snapshottable (see pkg/aroma/checkpoint).
type Provenance struct {
	// Scenario names the world-registered scenario whose builder
	// assembled this world.
	Scenario string `json:"scenario"`
	// Seed, Horizon, Verbose, and Params are the scenario.Config fields
	// the builder ran under (zero values included — the builder's own
	// defaulting is part of the recipe).
	Seed    int64             `json:"seed"`
	Horizon sim.Time          `json:"horizon"`
	Verbose bool              `json:"verbose,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
	// Faults is the armed fault plan in canonical string form ("" when
	// the world runs clean). Unlike telemetry, which only observes,
	// faults change what happens in the world, so they are
	// part of the recipe: replaying a faulted world re-arms the plan.
	Faults string `json:"faults,omitempty"`
	// Forks is the ordered reseed lineage (empty for an unforked world).
	Forks []ForkPoint `json:"forks,omitempty"`
	// Restarts counts supervisor resurrections of this world from its
	// own snapshots (see internal/daemon): lineage for worlds that died
	// and were restored. Zero for a world that never failed.
	Restarts int `json:"restarts,omitempty"`
}

// SetProvenance stamps the world's build recipe. scenario.Build calls
// this for every world-registered scenario; code assembling worlds by
// hand may stamp its own recipe if it registers a matching builder.
func (w *World) SetProvenance(p Provenance) { w.prov = &p }

// Provenance returns the world's build recipe and whether one was
// stamped.
func (w *World) Provenance() (Provenance, bool) {
	if w.prov == nil {
		return Provenance{}, false
	}
	return *w.prov, true
}

// Fork restarts the world's random stream with seed and records the
// fork point in the provenance lineage. From this instant on, the world
// diverges from an identically built world that was not forked (or was
// forked with a different seed); two worlds forked alike stay
// bit-identical.
func (w *World) Fork(seed int64) {
	w.kernel.Reseed(seed)
	if w.prov != nil {
		w.prov.Forks = append(w.prov.Forks, ForkPoint{At: w.Now(), Seed: seed})
	}
}

// DeviceState is one device's model-layer export: position and mobility
// progress, plus the discovery agent when the device is networked.
type DeviceState struct {
	Name       string                `json:"name"`
	Pos        geo.Point             `json:"pos"`
	WanderLegs int                   `json:"wander_legs,omitempty"`
	Agent      *discovery.AgentState `json:"agent,omitempty"`
}

// UserState is one user's model-layer export.
type UserState struct {
	Name        string    `json:"name"`
	Pos         geo.Point `json:"pos"`
	Frustration float64   `json:"frustration"`
	Abandoned   bool      `json:"abandoned"`
}

// WorldState aggregates every layer's canonical export: the kernel
// (clock, counters, RNG position, pending events), the environment,
// PHY, MAC, network, discovery services, and the model entities. Two
// worlds that evolved through the same event sequence export equal
// WorldStates; the checkpoint layer uses byte-equality of the JSON
// encoding as its restore-correctness proof.
type WorldState struct {
	Name    string            `json:"name"`
	Kernel  sim.State         `json:"kernel"`
	Env     env.State         `json:"env"`
	Medium  radio.State       `json:"medium"`
	MAC     mac.State         `json:"mac"`
	Net     netsim.State      `json:"net"`
	Lookups []discovery.State `json:"lookups,omitempty"`
	Devices []DeviceState     `json:"devices,omitempty"`
	Users   []UserState       `json:"users,omitempty"`
	// Faults is the armed fault injector's snapshot (plan, RNG draw
	// count, per-kind injection counters); nil — and omitted — for a
	// fault-free world, keeping its canonical JSON byte-identical to
	// pre-fault builds.
	Faults   *fault.State `json:"faults,omitempty"`
	TraceLen int          `json:"trace_len"`
	Digest   string       `json:"digest"`
}

// ExportState captures the world's current state across all layers.
func (w *World) ExportState() WorldState {
	st := WorldState{
		Name:     w.opts.name,
		Kernel:   w.kernel.ExportState(),
		Env:      w.env.ExportState(),
		Medium:   w.medium.ExportState(),
		MAC:      w.mac.ExportState(),
		Net:      w.net.ExportState(),
		TraceLen: len(w.log.Events()),
		Digest:   w.Digest(),
	}
	if w.faults != nil {
		fs := w.faults.ExportState()
		st.Faults = &fs
	}
	for _, lk := range w.lookups {
		st.Lookups = append(st.Lookups, lk.ExportState())
	}
	for _, d := range w.devices {
		ds := DeviceState{Name: d.Name(), Pos: d.Pos()}
		if wd := d.Wanderer(); wd != nil {
			ds.WanderLegs = wd.Legs()
		}
		// d.agent accessed directly: the Agent() accessor lazily creates
		// (and thereby mutates) — an export must observe, never create.
		if d.agent != nil {
			as := d.agent.ExportState()
			ds.Agent = &as
		}
		st.Devices = append(st.Devices, ds)
	}
	for _, u := range w.users {
		st.Users = append(st.Users, UserState{
			Name: u.U().Name, Pos: u.Pos(),
			Frustration: u.U().Frustration(), Abandoned: u.U().Abandoned(),
		})
	}
	return st
}

// MarshalState returns the world's exported state as canonical JSON
// (struct field order plus sorted slices and map keys make the encoding
// deterministic, so byte-equality is state-equality).
func (w *World) MarshalState() ([]byte, error) {
	return json.Marshal(w.ExportState())
}
