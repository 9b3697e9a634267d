package mac

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// QueueLen returns the number of frames waiting (excluding in-flight).
func (s *Station) QueueLen() int { return len(s.queue) }
