package session

import (
	"aroma/internal/sim"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Name returns the guarded service's name.
func (m *Manager) Name() string { return m.name }

// IdleFor returns the time since the holder's last activity.
func (m *Manager) IdleFor() sim.Time {
	if m.owner == "" {
		return 0
	}
	return m.kernel.Now() - m.lastTouch
}

// QueueLen returns the number of queued waiters.
func (m *Manager) QueueLen() int { return len(m.waiters) }
