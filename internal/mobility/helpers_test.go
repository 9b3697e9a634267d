package mobility

import (
	"aroma/internal/geo"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Done reports whether the mover has arrived or been stopped.
func (m *Mover) Done() bool { return m.done }

// Done reports whether the wanderer has been stopped.
func (w *Wanderer) Done() bool { return w.done }

// Pos returns the last sampled position.
func (w *Wanderer) Pos() geo.Point { return w.cur }

// inside reports whether p lies inside or on the boundary of r.
func inside(r geo.Rect, p geo.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Stop halts the mover where it is; OnArrive does not fire.
func (m *Mover) Stop() {
	if m.done {
		return
	}
	m.done = true
	m.stop()
}
