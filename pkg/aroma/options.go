package aroma

import (
	"aroma/internal/fault"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/trace"
)

// Option configures a World at construction time.
type Option func(*worldOptions)

type worldOptions struct {
	name           string
	seed           int64
	plan           *geo.FloorPlan
	arenaW, arenaH float64
	channel        int
	txPowerDBm     float64
	traceMin       trace.Severity
	mediumOpts     []radio.MediumOption
	faults         fault.Plan
}

func defaultWorldOptions() worldOptions {
	return worldOptions{
		name:       "world",
		seed:       1,
		arenaW:     30,
		arenaH:     20,
		channel:    6,
		txPowerDBm: 15,
		traceMin:   trace.Debug,
	}
}

// WithName names the world; the name becomes the analyzed system's name.
func WithName(name string) Option {
	return func(o *worldOptions) { o.name = name }
}

// WithSeed seeds the deterministic kernel. The same seed always yields
// the same run. The default seed is 1.
func WithSeed(seed int64) Option {
	return func(o *worldOptions) { o.seed = seed }
}

// WithArena sets the floor-plan bounds to a w×h metre rectangle at the
// origin. The default arena is 30×20 m.
func WithArena(w, h float64) Option {
	return func(o *worldOptions) { o.arenaW, o.arenaH = w, h }
}

// WithFloorPlan supplies a complete floor plan (walls included),
// overriding WithArena.
func WithFloorPlan(plan *geo.FloorPlan) Option {
	return func(o *worldOptions) { o.plan = plan }
}

// WithRadioDefaults sets the channel and transmit power newly added
// devices use unless overridden per device. Defaults: channel 6, 15 dBm.
func WithRadioDefaults(channel int, txPowerDBm float64) Option {
	return func(o *worldOptions) {
		o.channel = channel
		o.txPowerDBm = txPowerDBm
	}
}

// WithRadioCutoff enables the radio medium's spatial index: receivers
// whose best-case received power for a transmission would fall below dBm
// are skipped by delivery and interference accounting. Pick a cutoff at
// or below the -100 dBm thermal noise floor so each skipped contribution
// is at most noise-level; the error is per contribution, so lower the
// cutoff by 10*log10(k) when k simultaneous interferers are expected and
// marginal decode outcomes matter (-110 dBm covers k=10). Dense worlds
// (hundreds of radios) become dramatically cheaper to simulate. Without
// this option, or with math.Inf(-1), every radio on an overlapping
// channel is considered for every transmission (exact physics).
func WithRadioCutoff(dBm float64) Option {
	return func(o *worldOptions) {
		o.mediumOpts = append(o.mediumOpts, radio.WithRxCutoffDBm(dBm))
	}
}

// WithFaults arms a deterministic fault plan at construction: every
// occurrence in the plan is scheduled as a kernel event, victims are
// picked from a dedicated seed-derived fault RNG stream, and each
// window emits trace records — so a faulted run is exactly as
// reproducible as a clean one (same seed, same plan → same digest).
// See internal/fault for the plan grammar and World.ApplyFaults for
// arming after construction. An invalid plan panics at NewWorld.
func WithFaults(plan fault.Plan) Option {
	return func(o *worldOptions) { o.faults = plan }
}

// WithTraceMin discards trace events below the given severity.
func WithTraceMin(min trace.Severity) Option {
	return func(o *worldOptions) { o.traceMin = min }
}
