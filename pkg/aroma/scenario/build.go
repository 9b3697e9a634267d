package scenario

import (
	"fmt"
	"io"
	"sort"

	"aroma/internal/fault"
	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/pkg/aroma"
)

// Built is an assembled, not-yet-run scenario world. Builders front-load
// every piece of the workload into the world at virtual time zero —
// devices, users, and all future stimuli as scheduled events — so that
// driving the world to any time T is a pure kernel operation. That is
// the property the checkpoint layer depends on: a world rebuilt from
// the same Config and run to the same instant is bit-identical to the
// original, no matter how the original's run was partitioned.
type Built struct {
	// World is the assembled world, positioned at virtual time zero.
	World *aroma.World
	// Horizon is the scenario's resolved run length (cfg.Horizon or the
	// scenario's classic default).
	Horizon sim.Time
	// Finish, if non-nil, computes the scenario's end-of-run Result:
	// analysis, metrics, closing narration. It must only read world
	// state — never schedule, advance, or record trace events — so that
	// it can run at any point (the daemon calls it on demand) without
	// perturbing the digest trajectory.
	Finish func(*Result)
}

// BuildFunc assembles a scenario world from a configuration without
// running it.
type BuildFunc func(cfg Config) (*Built, error)

var builders = make(map[string]BuildFunc)

// RegisterWorld registers a scenario in build/finish form: build
// assembles the world and schedules its whole workload; the returned
// Built's Finish computes the result once the caller has driven the
// world. RegisterWorld also derives and registers the classic Func form
// (build, run to horizon, finish), so a world-registered scenario is
// indistinguishable from a Func-registered one to every existing
// caller. Only world-registered scenarios are snapshottable.
func RegisterWorld(name, description string, build BuildFunc) {
	if build == nil {
		panic("scenario: nil builder for " + name)
	}
	Register(name, description, func(cfg Config) (*Result, error) {
		b, err := Build(name, cfg)
		if err != nil {
			return nil, err
		}
		b.World.RunUntil(b.Horizon)
		return b.Result(), nil
	})
	builders[name] = build
}

// Result produces the scenario's Result for the world's current state:
// it runs Finish (if any) and stamps the run counters and digest. It
// may be called at any point of the run; the digest reflects the state
// at the call.
func (b *Built) Result() *Result {
	res := &Result{Seed: b.World.Seed()}
	if b.Finish != nil {
		b.Finish(res)
	}
	res.SimTime = b.World.Now()
	res.Steps = b.World.Kernel().Steps()
	res.Digest = b.World.Digest()
	if reg := b.World.Telemetry(); reg != nil {
		res.Telemetry = reg.Snapshot(int64(b.World.Now()))
	}
	return res
}

// Build assembles the named scenario's world under the Exec contract
// (nil Out defaults to io.Discard, panics become errors) without
// running it. It fails for scenarios registered only in Func form —
// those drive their worlds imperatively and cannot be rebuilt to an
// arbitrary instant.
func Build(name string, cfg Config) (b *Built, err error) {
	build, ok := builders[name]
	if !ok {
		if _, registered := registry[name]; registered {
			return nil, fmt.Errorf("scenario: %q is not world-registered (no builder; it cannot be snapshotted)", name)
		}
		return nil, fmt.Errorf("scenario: unknown scenario %q (registered: %v)", name, Names())
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("scenario %s: build panic: %v", name, r)
		}
	}()
	b, err = build(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	if b == nil || b.World == nil {
		return nil, fmt.Errorf("scenario %s: builder returned no world", name)
	}
	// Stamp the recipe that rebuilds this exact world. Params is copied:
	// the provenance must stay valid even if the caller's map changes.
	var params map[string]string
	if len(cfg.Params) > 0 {
		params = make(map[string]string, len(cfg.Params))
		for k, v := range cfg.Params {
			params[k] = v
		}
	}
	// Arm the config's fault plan unless the builder armed one itself
	// (a builder with a default plan resolves cfg.Faults on its own, so
	// the world it returns is already authoritative).
	if cfg.Faults != "" && !b.World.HasFaults() {
		plan, perr := fault.Parse(cfg.Faults)
		if perr != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, perr)
		}
		if aerr := b.World.ApplyFaults(plan); aerr != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, aerr)
		}
	}
	b.World.SetProvenance(aroma.Provenance{
		Scenario: name, Seed: cfg.Seed, Horizon: cfg.Horizon,
		Verbose: cfg.Verbose, Params: params,
		// The armed plan (the builder's or the config's) in canonical
		// form: faults shape the event sequence, so they are recipe, not
		// strategy.
		Faults: b.World.FaultPlan(),
	})
	// Observability, applied after the recipe is stamped: telemetry
	// does not change digests, so it is not part of the provenance.
	if cfg.Metrics {
		b.EnableTelemetry()
	}
	return b, nil
}

// EnableTelemetry enables the world's telemetry at the default period
// (World.EnableTelemetry(0)) and reserves every sampled series for the
// samples the sampler takes between now and Horizon, so sampling the
// run never regrows a series. A world restored or forked mid-run
// reserves only what is left. Running past Horizon stays correct: the
// series then grow as unreserved ones do. It returns the registry.
func (b *Built) EnableTelemetry() *telemetry.Registry {
	reg := b.World.EnableTelemetry(0)
	if left := b.Horizon - b.World.Now(); left > 0 {
		reg.Reserve(int(left / aroma.DefaultTelemetryPeriod))
	}
	return reg
}

// Buildable reports whether the named scenario is world-registered.
func Buildable(name string) bool {
	_, ok := builders[name]
	return ok
}

// BuildableNames returns the sorted names of world-registered
// scenarios.
func BuildableNames() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
