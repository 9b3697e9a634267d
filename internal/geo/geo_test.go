package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); !almostEq(d, 5) {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

func TestLerpClamps(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	if p := a.Lerp(b, 0.5); p != Pt(5, 0) {
		t.Fatalf("Lerp mid = %v", p)
	}
	if p := a.Lerp(b, -1); p != a {
		t.Fatalf("Lerp clamp low = %v", p)
	}
	if p := a.Lerp(b, 2); p != b {
		t.Fatalf("Lerp clamp high = %v", p)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},  // X crossing
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false}, // collinear disjoint
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), true},  // collinear overlap
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), true},  // shared endpoint
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1)), false}, // parallel
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), true}, // T crossing
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(2, 1)), true},  // touch interior
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, 1), Pt(5, 2)), false}, // far away
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d (sym): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestRect(t *testing.T) {
	r := RectAt(1, 2, 3, 4)
	if !almostEq(r.Width(), 3) || !almostEq(r.Height(), 4) {
		t.Fatalf("rect dims wrong: %+v", r)
	}
}

func TestRectEdgesFormClosedLoop(t *testing.T) {
	r := RectAt(0, 0, 2, 3)
	e := r.Edges()
	for i := 0; i < 4; i++ {
		if e[i].B != e[(i+1)%4].A {
			t.Fatalf("edges not chained at %d", i)
		}
	}
	perim := 0.0
	for _, s := range e {
		perim += s.A.Dist(s.B)
	}
	if !almostEq(perim, 10) {
		t.Fatalf("perimeter = %v, want 10", perim)
	}
}

func TestWallsCrossed(t *testing.T) {
	f := NewFloorPlan(RectAt(0, 0, 20, 10))
	// Vertical wall at x=10 splitting the space.
	f.AddWall(Seg(Pt(10, 0), Pt(10, 10)), 6, 20)
	if l := f.PathLossDB(Pt(2, 5), Pt(8, 5)); l != 0 {
		t.Fatalf("loss without crossing = %v, want 0", l)
	}
	if l := f.PathLossDB(Pt(2, 5), Pt(18, 5)); !almostEq(l, 6) {
		t.Fatalf("loss = %v, want 6", l)
	}
	if l := f.AcousticLossDB(Pt(2, 5), Pt(18, 5)); !almostEq(l, 20) {
		t.Fatalf("acoustic loss = %v, want 20", l)
	}
}

func TestAddRoom(t *testing.T) {
	f := NewFloorPlan(RectAt(0, 0, 20, 20))
	f.AddRoom(RectAt(5, 5, 5, 5), 3, 10)
	if len(f.Walls) != 4 {
		t.Fatalf("walls = %d, want 4", len(f.Walls))
	}
	// From outside the room straight through: crosses 2 walls.
	if l := f.PathLossDB(Pt(1, 7.5), Pt(15, 7.5)); !almostEq(l, 6) {
		t.Fatalf("loss = %v, want 6", l)
	}
}

func TestPathPosition(t *testing.T) {
	p := Path{Waypoints: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10)}, SpeedMPS: 2}
	if !almostEq(p.TotalLength(), 20) {
		t.Fatalf("length = %v", p.TotalLength())
	}
	if !almostEq(p.Duration(), 10) {
		t.Fatalf("duration = %v", p.Duration())
	}
	if pos := p.PositionAt(0); pos != Pt(0, 0) {
		t.Fatalf("t=0 pos = %v", pos)
	}
	if pos := p.PositionAt(2.5); pos != Pt(5, 0) {
		t.Fatalf("t=2.5 pos = %v", pos)
	}
	if pos := p.PositionAt(5); pos != Pt(10, 0) {
		t.Fatalf("t=5 pos = %v", pos)
	}
	if pos := p.PositionAt(7.5); pos != Pt(10, 5) {
		t.Fatalf("t=7.5 pos = %v", pos)
	}
	if pos := p.PositionAt(100); pos != Pt(10, 10) {
		t.Fatalf("t=100 pos = %v", pos)
	}
}

func TestPathDegenerate(t *testing.T) {
	if pos := (Path{}).PositionAt(5); pos != (Point{}) {
		t.Fatalf("empty path pos = %v", pos)
	}
	p := Path{Waypoints: []Point{Pt(3, 3)}, SpeedMPS: 1}
	if pos := p.PositionAt(99); pos != Pt(3, 3) {
		t.Fatalf("single waypoint pos = %v", pos)
	}
	stat := Path{Waypoints: []Point{Pt(1, 1), Pt(2, 2)}, SpeedMPS: 0}
	if pos := stat.PositionAt(10); pos != Pt(1, 1) {
		t.Fatalf("zero-speed pos = %v", pos)
	}
	if d := stat.Duration(); d != 0 {
		t.Fatalf("zero-speed duration = %v", d)
	}
}

func TestPathZeroLengthLeg(t *testing.T) {
	p := Path{Waypoints: []Point{Pt(0, 0), Pt(0, 0), Pt(4, 0)}, SpeedMPS: 1}
	if pos := p.PositionAt(2); pos != Pt(2, 0) {
		t.Fatalf("pos = %v, want (2,0)", pos)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestPropertyDistMetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		if !almostEq(a.Dist(b), b.Dist(a)) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: a path position is always within the bounding box of the
// waypoints.
func TestPropertyPathInHull(t *testing.T) {
	f := func(coords []int8, tRaw uint8) bool {
		if len(coords) < 4 {
			return true
		}
		var wps []Point
		for i := 0; i+1 < len(coords); i += 2 {
			wps = append(wps, Pt(float64(coords[i]), float64(coords[i+1])))
		}
		p := Path{Waypoints: wps, SpeedMPS: 1.5}
		pos := p.PositionAt(float64(tRaw))
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, w := range wps {
			minX = math.Min(minX, w.X)
			maxX = math.Max(maxX, w.X)
			minY = math.Min(minY, w.Y)
			maxY = math.Max(maxY, w.Y)
		}
		return pos.X >= minX-1e-9 && pos.X <= maxX+1e-9 &&
			pos.Y >= minY-1e-9 && pos.Y <= maxY+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: segment intersection is symmetric.
func TestPropertyIntersectSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		u := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		return s.Intersects(u) == u.Intersects(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestPathInvalidSpeedIsStationary(t *testing.T) {
	wps := []Point{Pt(0, 0), Pt(100, 0), Pt(100, 100)}
	for _, speed := range []float64{0, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := Path{Waypoints: wps, SpeedMPS: speed}
		if d := p.Duration(); d != 0 {
			t.Errorf("speed %v: Duration = %v, want 0", speed, d)
		}
		for _, tSec := range []float64{0, 1, 1e9, math.NaN(), math.Inf(1)} {
			got := p.PositionAt(tSec)
			if got != wps[0] {
				t.Errorf("speed %v: PositionAt(%v) = %v, want first waypoint", speed, tSec, got)
			}
			if math.IsNaN(got.X) || math.IsNaN(got.Y) {
				t.Fatalf("speed %v: NaN position leaked from PositionAt(%v)", speed, tSec)
			}
		}
	}
}

func TestPathNaNTimePinsToStart(t *testing.T) {
	p := Path{Waypoints: []Point{Pt(0, 0), Pt(100, 0)}, SpeedMPS: 2}
	if got := p.PositionAt(math.NaN()); got != Pt(0, 0) {
		t.Fatalf("PositionAt(NaN) = %v, want start", got)
	}
	// A valid path still moves.
	if got := p.PositionAt(10); got != Pt(20, 0) {
		t.Fatalf("PositionAt(10) = %v, want (20,0)", got)
	}
}
