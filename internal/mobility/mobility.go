// Package mobility animates entity positions over simulated time — the
// substrate behind the paper's "mobile and adaptive applications" and
// its physical-layer observation that the presenter is "constrained by
// requiring physical proximity to the laptop". A Mover walks an entity
// along a geo.Path; a Wanderer drives the classic continuous
// random-waypoint wandering of the mobile density experiments.
//
// Movement is sampled: every tick the mover recomputes the position and
// hands it to an apply callback (which typically updates a radio.Radio
// and/or user.User position). Sampling keeps the radio medium's
// propagation queries consistent between ticks and keeps runs
// deterministic.
package mobility

import (
	"fmt"

	"aroma/internal/geo"
	"aroma/internal/sim"
)

// The position sampling intervals: a walk along a path samples every
// WalkTick (see aroma's Device.MoveAlong), and each leg of a Wanderer
// every WanderTick.
const (
	WalkTick   = 500 * sim.Millisecond
	WanderTick = 200 * sim.Millisecond
)

// Mover walks an entity along a path.
type Mover struct {
	kernel  *sim.Kernel
	path    geo.Path
	started sim.Time
	stop    func()
	done    bool

	// OnArrive, if non-nil, fires once when the final waypoint is
	// reached.
	OnArrive func()
}

// Start begins walking the path, sampling every tick, which must be
// positive. The apply callback receives every sampled position,
// starting immediately with the first waypoint. It returns the Mover,
// which can be stopped early.
func Start(k *sim.Kernel, path geo.Path, tick sim.Time, apply func(geo.Point)) *Mover {
	m := &Mover{kernel: k, path: path, started: k.Now()}
	if apply != nil {
		apply(path.PositionAt(0))
	}
	duration := path.Duration()
	m.stop = k.Ticker(tick, "mobility.tick", func() {
		if m.done {
			return
		}
		elapsed := (k.Now() - m.started).Seconds()
		if apply != nil {
			apply(path.PositionAt(elapsed))
		}
		if elapsed >= duration {
			m.finish()
		}
	})
	if duration == 0 {
		// Stationary path: arrive immediately (asynchronously, so the
		// caller can attach OnArrive first).
		k.Schedule(0, "mobility.arriveNow", m.finish)
	}
	return m
}

func (m *Mover) finish() {
	if m.done {
		return
	}
	m.done = true
	m.stop()
	if m.OnArrive != nil {
		m.OnArrive()
	}
}

// Progress returns the fraction of the path traversed so far in [0,1].
func (m *Mover) Progress() float64 {
	d := m.path.Duration()
	if d == 0 {
		return 1
	}
	p := (m.kernel.Now() - m.started).Seconds() / d
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// String summarizes the mover.
func (m *Mover) String() string {
	return fmt.Sprintf("mover{%.0f%% of %.1fm, done=%v}", 100*m.Progress(), m.path.TotalLength(), m.done)
}

// Wanderer drives continuous random-waypoint motion: from its start
// position it picks a uniformly random destination inside bounds, walks
// there at constant speed (sampling every WanderTick), then immediately
// picks the next destination, forever, until stopped. This is the classic
// mobile-dense workload: hundreds of Wanderers keep the radio medium's
// spatial index under constant movement pressure. Randomness comes from
// the kernel, so runs are deterministic per seed.
type Wanderer struct {
	kernel *sim.Kernel
	bounds geo.Rect
	speed  float64
	apply  func(geo.Point)
	cur    geo.Point
	mover  *Mover
	done   bool
	legs   int
}

// StartWander begins wandering from start. The apply callback receives
// every sampled position (starting immediately with start itself). A
// speed that is not positive and finite produces a Wanderer that
// applies start once and is immediately Done — never a zero-duration
// leg loop.
func StartWander(k *sim.Kernel, start geo.Point, bounds geo.Rect, speedMPS float64, apply func(geo.Point)) *Wanderer {
	w := &Wanderer{kernel: k, bounds: bounds, speed: speedMPS, apply: apply, cur: start}
	if !geo.ValidSpeed(speedMPS) {
		if apply != nil {
			apply(start)
		}
		w.done = true
		return w
	}
	w.nextLeg()
	return w
}

func (w *Wanderer) nextLeg() {
	if w.done {
		return
	}
	rng := w.kernel.Rand()
	dest := geo.Pt(
		w.bounds.Min.X+rng.Float64()*w.bounds.Width(),
		w.bounds.Min.Y+rng.Float64()*w.bounds.Height(),
	)
	if dest == w.cur {
		// Degenerate bounds pin every draw to the current position
		// (probability zero otherwise): park instead of spinning
		// zero-duration legs at one instant, which would hang the kernel.
		w.done = true
		return
	}
	path := geo.Path{Waypoints: []geo.Point{w.cur, dest}, SpeedMPS: w.speed}
	w.legs++
	w.mover = Start(w.kernel, path, WanderTick, func(p geo.Point) {
		w.cur = p
		if w.apply != nil {
			w.apply(p)
		}
	})
	w.mover.OnArrive = w.nextLeg
}

// Legs returns the number of legs started so far.
func (w *Wanderer) Legs() int { return w.legs }

// String summarizes the wanderer.
func (w *Wanderer) String() string {
	return fmt.Sprintf("wanderer{leg %d at %s, done=%v}", w.legs, w.cur, w.done)
}

// Patrol builds a path that walks the given waypoints and returns to the
// first one (a closed loop, walked once).
func Patrol(waypoints []geo.Point, speedMPS float64) geo.Path {
	if len(waypoints) == 0 {
		return geo.Path{SpeedMPS: speedMPS}
	}
	wps := make([]geo.Point, len(waypoints)+1)
	copy(wps, waypoints)
	wps[len(waypoints)] = waypoints[0]
	return geo.Path{Waypoints: wps, SpeedMPS: speedMPS}
}
