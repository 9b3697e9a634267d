package projector

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Brightness returns the lamp level (0–10).
func (p *SmartProjector) Brightness() int { return p.brightness }
