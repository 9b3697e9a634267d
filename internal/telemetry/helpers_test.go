package telemetry

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Add adds n.
func (c *HostCounter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the named instrument's scalar value and whether it
// exists. Label-bearing instruments match on name alone only when the
// name is unique; otherwise the first in sort order wins.
func (s *Snapshot) Value(name string) (float64, bool) {
	for i := range s.Instruments {
		if s.Instruments[i].Name == name {
			return s.Instruments[i].Value, true
		}
	}
	return 0, false
}

// points zips a sampled instrument's value column with the registry's
// time column, from index from on.
func points(r *Registry, in *instrument, from int) []Point {
	pts := make([]Point, 0, len(in.vals)-from)
	for i := from; i < len(in.vals); i++ {
		pts = append(pts, Point{T: r.t[i], V: in.vals[i]})
	}
	return pts
}

// counter registers a counter func over a fresh variable and returns
// the variable, for tests that move a counter by hand.
func counter(r *Registry, name string, labels ...Label) *uint64 {
	n := new(uint64)
	r.CounterFunc(name, func() uint64 { return *n }, labels...)
	return n
}
