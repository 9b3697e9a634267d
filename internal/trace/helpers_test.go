package trace

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Valid reports whether l is one of the five defined layers.
func (l Layer) Valid() bool { return l >= Environment && l < numLayers }

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// ByLayer returns the events recorded for one layer, in order.
func (l *Log) ByLayer(layer Layer) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Layer == layer {
			out = append(out, e)
		}
	}
	return out
}

// CountByLayer returns a per-layer count of events at or above min severity.
func (l *Log) CountByLayer(min Severity) map[Layer]int {
	counts := make(map[Layer]int, int(numLayers))
	if l == nil {
		return counts
	}
	for _, e := range l.events {
		if e.Severity >= min {
			counts[e.Layer]++
		}
	}
	return counts
}

// Reset discards all recorded events.
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.events = l.events[:0]
}
