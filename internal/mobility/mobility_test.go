package mobility

import (
	"math"
	"testing"

	"aroma/internal/geo"
	"aroma/internal/sim"
)

func TestWalkStraightLine(t *testing.T) {
	k := sim.New(1)
	path := geo.Path{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}, SpeedMPS: 1}
	var positions []geo.Point
	m := Start(k, path, sim.Second, func(p geo.Point) { positions = append(positions, p) })
	arrived := false
	m.OnArrive = func() { arrived = true }
	k.RunUntil(15 * sim.Second)
	if !arrived || !m.Done() {
		t.Fatal("mover did not arrive")
	}
	if len(positions) < 10 {
		t.Fatalf("too few samples: %d", len(positions))
	}
	if positions[0] != geo.Pt(0, 0) {
		t.Fatalf("first sample = %v", positions[0])
	}
	last := positions[len(positions)-1]
	if last.Dist(geo.Pt(10, 0)) > 1e-9 {
		t.Fatalf("last sample = %v", last)
	}
	// Samples advance monotonically in x.
	for i := 1; i < len(positions); i++ {
		if positions[i].X < positions[i-1].X-1e-9 {
			t.Fatalf("x went backwards at %d: %v", i, positions)
		}
	}
}

func TestMoverStopsEarly(t *testing.T) {
	k := sim.New(1)
	path := geo.Path{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}, SpeedMPS: 1}
	var last geo.Point
	m := Start(k, path, sim.Second, func(p geo.Point) { last = p })
	arrived := false
	m.OnArrive = func() { arrived = true }
	k.RunUntil(10 * sim.Second)
	m.Stop()
	k.RunUntil(200 * sim.Second)
	if arrived {
		t.Fatal("OnArrive fired after Stop")
	}
	if last.X > 11 {
		t.Fatalf("mover kept moving after Stop: %v", last)
	}
	if !m.Done() {
		t.Fatal("stopped mover not done")
	}
	m.Stop() // idempotent
}

func TestProgress(t *testing.T) {
	k := sim.New(1)
	path := geo.Path{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}, SpeedMPS: 1}
	m := Start(k, path, sim.Second, nil)
	if p := m.Progress(); p != 0 {
		t.Fatalf("initial progress = %v", p)
	}
	k.RunUntil(5 * sim.Second)
	if p := m.Progress(); math.Abs(p-0.5) > 0.01 {
		t.Fatalf("mid progress = %v", p)
	}
	k.RunUntil(sim.Minute)
	if p := m.Progress(); p != 1 {
		t.Fatalf("final progress = %v", p)
	}
}

func TestStationaryPathArrivesImmediately(t *testing.T) {
	k := sim.New(1)
	m := Start(k, geo.Path{Waypoints: []geo.Point{geo.Pt(3, 3)}, SpeedMPS: 1}, 0, nil)
	arrived := false
	m.OnArrive = func() { arrived = true }
	k.RunUntil(sim.Second)
	if !arrived {
		t.Fatal("stationary mover never arrived")
	}
	if m.Progress() != 1 {
		t.Fatalf("progress = %v", m.Progress())
	}
}

func TestDefaultTickUsed(t *testing.T) {
	k := sim.New(1)
	samples := 0
	path := geo.Path{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(2, 0)}, SpeedMPS: 1}
	Start(k, path, 0, func(geo.Point) { samples++ })
	k.RunUntil(2 * sim.Second)
	// 2 s at 200 ms ticks plus the initial sample: ~11.
	if samples < 8 || samples > 14 {
		t.Fatalf("samples = %d with default tick", samples)
	}
}

func TestPatrolClosesLoop(t *testing.T) {
	wps := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(10, 10)}
	path := Patrol(wps, 2)
	if len(path.Waypoints) != 4 {
		t.Fatalf("waypoints = %d", len(path.Waypoints))
	}
	if path.Waypoints[3] != wps[0] {
		t.Fatal("loop not closed")
	}
	if Patrol(nil, 1).TotalLength() != 0 {
		t.Fatal("empty patrol should be empty")
	}
}

func TestMoverString(t *testing.T) {
	k := sim.New(1)
	m := Start(k, geo.Path{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)}, SpeedMPS: 1}, 0, nil)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestWandererWalksInsideBounds(t *testing.T) {
	k := sim.New(4)
	bounds := geo.RectAt(0, 0, 50, 50)
	var samples []geo.Point
	w := StartWander(k, geo.Pt(25, 25), bounds, 5, 100*sim.Millisecond, func(p geo.Point) {
		samples = append(samples, p)
	})
	k.RunFor(30 * sim.Second)
	if w.Done() {
		t.Fatal("wanderer stopped on its own")
	}
	if w.Legs() < 2 {
		t.Fatalf("legs = %d, want continuous wandering", w.Legs())
	}
	if len(samples) < 100 {
		t.Fatalf("samples = %d, want steady sampling", len(samples))
	}
	moved := false
	for _, p := range samples {
		if !inside(bounds, p) {
			t.Fatalf("wanderer escaped bounds: %v", p)
		}
		if p != samples[0] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("wanderer never moved")
	}
}

func TestWandererDeterministicPerSeed(t *testing.T) {
	run := func() []geo.Point {
		k := sim.New(12)
		var samples []geo.Point
		StartWander(k, geo.Pt(10, 10), geo.RectAt(0, 0, 80, 80), 3, 0, func(p geo.Point) {
			samples = append(samples, p)
		})
		k.RunFor(20 * sim.Second)
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWandererInvalidSpeedParksImmediately(t *testing.T) {
	k := sim.New(1)
	applied := 0
	w := StartWander(k, geo.Pt(5, 5), geo.RectAt(0, 0, 10, 10), 0, 0, func(geo.Point) { applied++ })
	if !w.Done() || w.Legs() != 0 {
		t.Fatalf("zero-speed wanderer should park: done=%v legs=%d", w.Done(), w.Legs())
	}
	if applied != 1 {
		t.Fatalf("start position applied %d times, want 1", applied)
	}
	k.RunFor(10 * sim.Second) // must not livelock on zero-duration legs
	if applied != 1 {
		t.Fatalf("parked wanderer kept moving: %d applies", applied)
	}
}

func TestWandererDegenerateBoundsParks(t *testing.T) {
	// Zero-area bounds pin every destination draw to one point; the
	// wanderer must park rather than spin zero-duration legs forever.
	k := sim.New(2)
	w := StartWander(k, geo.Pt(3, 3), geo.Rect{Min: geo.Pt(3, 3), Max: geo.Pt(3, 3)}, 2, 0, nil)
	k.RunFor(10 * sim.Second) // must terminate
	if !w.Done() {
		t.Fatal("degenerate-bounds wanderer did not park")
	}
	// Start away from the pinned point: one leg walks there, then parks.
	k2 := sim.New(2)
	w2 := StartWander(k2, geo.Pt(0, 0), geo.Rect{Min: geo.Pt(3, 3), Max: geo.Pt(3, 3)}, 2, 0, nil)
	k2.RunFor(10 * sim.Second)
	if !w2.Done() || w2.Pos() != geo.Pt(3, 3) {
		t.Fatalf("wanderer should walk to the pinned point and park: done=%v pos=%v", w2.Done(), w2.Pos())
	}
}
