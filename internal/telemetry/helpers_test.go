package telemetry

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.r != nil {
		c.r.counters[c.slot] += n
	}
}

// Value returns the current count (0 for the zero handle).
func (c Counter) Value() uint64 {
	if c.r == nil {
		return 0
	}
	return c.r.counters[c.slot]
}

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
