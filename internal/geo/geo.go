// Package geo provides the 2-D geometry used by the environment layer:
// points, segments, rectangles (rooms), wall intersection counting, and
// simple waypoint mobility paths.
//
// Coordinates are in metres. The package is purely computational and has no
// dependency on the simulation kernel.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp returns the point a fraction t of the way from p to q.
// t is clamped to [0, 1].
func (p Point) Lerp(q Point, t float64) Point {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String formats the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is a directed line segment between two points.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// cross returns the z component of (b-a) x (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Intersects reports whether segments s and t intersect, including at
// endpoints and for collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(t, s.A) {
		return true
	}
	if d2 == 0 && onSegment(t, s.B) {
		return true
	}
	if d3 == 0 && onSegment(s, t.A) {
		return true
	}
	if d4 == 0 && onSegment(s, t.B) {
		return true
	}
	return false
}

// onSegment reports whether p (known collinear with s) lies on s.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// Rect is an axis-aligned rectangle, used for rooms and floor plans.
// Min is the lower-left corner, Max the upper-right.
type Rect struct {
	Min, Max Point
}

// RectAt builds a Rect from its lower-left corner, width and height.
func RectAt(x, y, w, h float64) Rect {
	return Rect{Min: Pt(x, y), Max: Pt(x+w, y+h)}
}

// Width returns the rectangle width.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle height.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Edges returns the four boundary segments of r.
func (r Rect) Edges() [4]Segment {
	a := r.Min
	b := Pt(r.Max.X, r.Min.Y)
	c := r.Max
	d := Pt(r.Min.X, r.Max.Y)
	return [4]Segment{Seg(a, b), Seg(b, c), Seg(c, d), Seg(d, a)}
}

// Wall is an attenuating obstacle in the floor plan. LossDB is the signal
// attenuation in decibels that a radio path crossing the wall incurs;
// AcousticLossDB is the analogous attenuation for sound.
type Wall struct {
	Seg            Segment
	LossDB         float64
	AcousticLossDB float64
}

// FloorPlan is a set of walls plus an overall bounding area.
type FloorPlan struct {
	Bounds Rect
	Walls  []Wall
}

// NewFloorPlan creates an empty floor plan with the given bounds.
func NewFloorPlan(bounds Rect) *FloorPlan {
	return &FloorPlan{Bounds: bounds}
}

// AddWall appends a wall with the given radio and acoustic losses.
func (f *FloorPlan) AddWall(s Segment, lossDB, acousticLossDB float64) {
	f.Walls = append(f.Walls, Wall{Seg: s, LossDB: lossDB, AcousticLossDB: acousticLossDB})
}

// AddRoom adds the four edges of r as walls sharing the same losses:
// the environment layer's room, the unit the paper's office settings
// are built from. Interior doorways should be modelled by splitting
// wall segments manually.
//
//aroma:kept environment-layer model: a room is four walls with shared losses
func (f *FloorPlan) AddRoom(r Rect, lossDB, acousticLossDB float64) {
	for _, e := range r.Edges() {
		f.AddWall(e, lossDB, acousticLossDB)
	}
}

// PathLossDB returns the total radio wall attenuation along a->b.
func (f *FloorPlan) PathLossDB(a, b Point) float64 {
	loss := 0.0
	path := Seg(a, b)
	for _, w := range f.Walls {
		if path.Intersects(w.Seg) {
			loss += w.LossDB
		}
	}
	return loss
}

// AcousticLossDB returns the total acoustic wall attenuation along a->b.
func (f *FloorPlan) AcousticLossDB(a, b Point) float64 {
	loss := 0.0
	path := Seg(a, b)
	for _, w := range f.Walls {
		if path.Intersects(w.Seg) {
			loss += w.AcousticLossDB
		}
	}
	return loss
}

// Path is a sequence of waypoints traversed at a constant speed, used by
// the mobility model for users and portable devices.
//
// SpeedMPS must be positive and finite for a moving path. Any other
// value — zero, negative, NaN, or infinite — degrades the path to a
// stationary one pinned at its first waypoint: PositionAt returns the
// first waypoint for all times and Duration returns 0, so no caller ever
// observes NaN positions or an infinite traversal time.
type Path struct {
	Waypoints []Point
	SpeedMPS  float64 // metres per second; must be > 0 and finite to move
}

// ValidSpeed reports whether v can traverse a path: positive and
// finite. It is the single definition of the Path speed contract —
// mobility code gates on it too. NaN compares false with >, so NaN
// speeds are rejected without an explicit check.
func ValidSpeed(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// moves reports whether the path actually traverses its waypoints.
func (p Path) moves() bool { return ValidSpeed(p.SpeedMPS) }

// TotalLength returns the summed length of all path legs.
func (p Path) TotalLength() float64 {
	total := 0.0
	for i := 1; i < len(p.Waypoints); i++ {
		total += p.Waypoints[i-1].Dist(p.Waypoints[i])
	}
	return total
}

// PositionAt returns the position after travelling for tSeconds from the
// first waypoint. Past the end of the path the final waypoint is returned.
// An empty path returns the origin; a single-waypoint path is stationary,
// as is any path with a non-positive, NaN, or infinite speed (see the
// Path contract). A NaN travel time also pins to the first waypoint
// rather than propagating into the interpolation.
func (p Path) PositionAt(tSeconds float64) Point {
	if len(p.Waypoints) == 0 {
		return Point{}
	}
	if len(p.Waypoints) == 1 || !p.moves() || tSeconds <= 0 || math.IsNaN(tSeconds) {
		return p.Waypoints[0]
	}
	remaining := tSeconds * p.SpeedMPS
	for i := 1; i < len(p.Waypoints); i++ {
		leg := p.Waypoints[i-1].Dist(p.Waypoints[i])
		if remaining <= leg {
			if leg == 0 {
				continue
			}
			return p.Waypoints[i-1].Lerp(p.Waypoints[i], remaining/leg)
		}
		remaining -= leg
	}
	return p.Waypoints[len(p.Waypoints)-1]
}

// Duration returns the time in seconds to traverse the whole path.
// A stationary path — including one degraded by an invalid speed — has
// duration 0, never NaN or +Inf.
func (p Path) Duration() float64 {
	if !p.moves() {
		return 0
	}
	return p.TotalLength() / p.SpeedMPS
}
