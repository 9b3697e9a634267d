package aroma

import (
	"math"
	"testing"

	"aroma/internal/geo"
	"aroma/internal/mobility"
)

func TestWanderMovesDevice(t *testing.T) {
	w := NewWorld(WithSeed(5), WithArena(100, 100), WithRadioCutoff(-100))
	d := w.AddDevice("rover", Pt(50, 50))
	start := d.Pos()
	if d.Wander(3) != d.Wanderer() || d.Wanderer() == nil {
		t.Fatal("Wander did not attach its wanderer")
	}
	w.RunFor(30 * Second)
	if d.Pos() == start {
		t.Fatal("wandering device never moved")
	}
	if d.Pos() != d.Radio().Pos || d.Pos() != d.Entity().Pos {
		t.Fatalf("positions diverged: device %v radio %v entity %v",
			d.Pos(), d.Radio().Pos, d.Entity().Pos)
	}
	bounds := w.plan.Bounds
	if !inside(bounds, d.Pos()) {
		t.Fatalf("device escaped the arena: %v", d.Pos())
	}
	if d.Wanderer().Legs() < 1 {
		t.Fatal("wanderer started no legs")
	}
}

func TestMoveAlongWalksOnceAndArrives(t *testing.T) {
	w := NewWorld(WithSeed(5), WithArena(100, 100))
	path := geo.Path{Waypoints: []Point{Pt(0, 0), Pt(30, 0)}, SpeedMPS: 3}
	d := w.AddDevice("walker", Pt(0, 0))
	mv := d.MoveAlong(path)
	if mv == nil {
		t.Fatal("MoveAlong started no mover")
	}
	// The first sample after the start comes one walk tick in.
	w.RunUntil(mobility.WalkTick - 1)
	if d.Pos() != Pt(0, 0) {
		t.Fatalf("device at %v before the first walk tick, want (0,0)", d.Pos())
	}
	w.RunUntil(mobility.WalkTick)
	if want := 3 * mobility.WalkTick.Seconds(); math.Abs(d.Pos().X-want) > 1e-9 || d.Pos().Y != 0 {
		t.Fatalf("device at %v after one walk tick, want (%v,0)", d.Pos(), want)
	}
	w.RunFor(20 * Second)
	if mv.Progress() != 1 {
		t.Fatal("mover never arrived")
	}
	if d.Pos() != Pt(30, 0) {
		t.Fatalf("device at %v, want the path end (30,0)", d.Pos())
	}
}

func TestDeviceWanderIsSeedReproducible(t *testing.T) {
	run := func() []Point {
		w := NewWorld(WithSeed(77), WithArena(60, 60), WithRadioCutoff(-100))
		d := w.AddDevice("rover", Pt(30, 30))
		d.Wander(2)
		var track []Point
		w.Ticker(Second, "sample", func() { track = append(track, d.Pos()) })
		w.RunFor(15 * Second)
		return track
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("track lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("track point %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// inside reports whether p lies inside or on the boundary of r.
func inside(r geo.Rect, p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}
