package scenario

import (
	"fmt"
	"io"

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

// Result produces the scenario's Result for the world's current state:
// it runs Finish (if any) and stamps the run counters and digest. It
// may be called at any point of the run; the digest reflects the state
// at the call. It leaves Telemetry unset: Drive attaches the snapshot
// for a run driven to completion, so a caller that reads only the
// result's numbers pays nothing for the series.
func (b *Built) Result() *Result {
	res := &Result{Seed: b.World.Seed()}
	if b.Finish != nil {
		b.Finish(res)
	}
	res.SimTime = b.World.Now()
	res.Steps = b.World.Kernel().Steps()
	res.Digest = b.World.Digest()
	return res
}

// Build assembles the named scenario's world without running it. A nil
// cfg.Out defaults to io.Discard, so a headless world writes nowhere
// and concurrent worlds with distinct writers never share a stream; a
// panic in the builder and a builder error become errors naming the
// scenario.
func Build(name string, cfg Config) (b *Built, err error) {
	s, ok := registry[name]
	if !ok {
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
	b, err = s.Build(cfg)
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

// EnableTelemetry enables the world's telemetry (World.EnableTelemetry)
// and reserves every sampled series for the samples the sampler takes
// between now and Horizon, so sampling the run never regrows a series.
// A world restored or forked mid-run reserves only what is left.
// Running past Horizon stays correct: the series then grow as
// unreserved ones do. It returns the registry.
func (b *Built) EnableTelemetry() *telemetry.Registry {
	reg := b.World.EnableTelemetry()
	if left := b.Horizon - b.World.Now(); left > 0 {
		reg.Reserve(int(left / aroma.DefaultTelemetryPeriod))
	}
	return reg
}
