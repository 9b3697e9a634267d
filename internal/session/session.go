// Package session implements the Smart Projector's session objects: the
// abstract-layer mechanism the paper describes for ensuring "that another
// user cannot inadvertently 'hijack' either the use or control of the
// projector".
//
// It also implements the two mechanisms the paper lists as future work:
//
//   - idle-timeout reclamation, "to deal with users who forget to
//     relinquish control of the projector without relying on a system
//     administrator to intervene" (experiment C4 measures reclamation
//     time and ablates administrator-only release), and
//   - coordinated acquisition of interrelated services, "to gracefully
//     resolve issues related to attempts by multiple users to access the
//     services in different orders" (GrabAll acquires a set of managers
//     atomically in a canonical order, eliminating the deadlock).
package session

import (
	"errors"
	"fmt"
	"sort"

	"aroma/internal/sim"
)

// ReclaimPolicy decides how a session ends when its holder goes quiet.
type ReclaimPolicy int

// Reclaim policies.
const (
	// IdleTimeout reclaims the session after IdleLimit without activity.
	IdleTimeout ReclaimPolicy = iota
	// AdminOnly never reclaims automatically; only ForceRelease frees a
	// forgotten session. This is the ablation arm: the paper argues
	// against designs that need an administrator.
	AdminOnly
)

// DefaultIdleLimit is the idle limit a new Manager starts with.
const DefaultIdleLimit = 2 * sim.Minute

// Errors returned by session operations.
var (
	ErrHeld     = errors.New("session: held by another user")
	ErrNotOwner = errors.New("session: caller does not hold the session")
	ErrNotHeld  = errors.New("session: not currently held")
)

// EndReason says why a session ended.
type EndReason int

// End reasons.
const (
	Released  EndReason = iota // voluntary release by the owner
	Reclaimed                  // idle-timeout reclamation
	Forced                     // administrative ForceRelease
)

// String names the end reason.
func (r EndReason) String() string {
	switch r {
	case Released:
		return "released"
	case Reclaimed:
		return "reclaimed"
	case Forced:
		return "forced"
	default:
		return fmt.Sprintf("EndReason(%d)", int(r))
	}
}

// Manager guards one exclusive service (e.g. "projection" or "control").
type Manager struct {
	kernel *sim.Kernel
	name   string

	Policy    ReclaimPolicy
	IdleLimit sim.Time

	owner     string
	grantedAt sim.Time
	lastTouch sim.Time
	idleTimer sim.Event
	waiters   []waiter

	// OnEnd, if non-nil, observes every session end.
	OnEnd func(owner string, reason EndReason)

	// Stats
	Grabs           uint64
	HijacksRejected uint64
	Releases        uint64
	Reclamations    uint64
	ForcedReleases  uint64
}

type waiter struct {
	owner   string
	granted func()
}

// NewManager creates a session manager for one named service.
func NewManager(k *sim.Kernel, name string) *Manager {
	return &Manager{kernel: k, name: name, Policy: IdleTimeout, IdleLimit: DefaultIdleLimit}
}

// Held reports whether the session is currently held.
func (m *Manager) Held() bool { return m.owner != "" }

// Owner returns the current holder ("" when free).
func (m *Manager) Owner() string { return m.owner }

// HeldFor returns how long the current session has been held.
func (m *Manager) HeldFor() sim.Time {
	if m.owner == "" {
		return 0
	}
	return m.kernel.Now() - m.grantedAt
}

// Grab acquires the session for owner. A second user's Grab while held is
// the paper's "hijack" attempt and is rejected with ErrHeld. Re-grabbing
// by the current owner is an idempotent Touch.
func (m *Manager) Grab(owner string) error {
	if owner == "" {
		return errors.New("session: empty owner")
	}
	if m.owner == owner {
		m.Touch(owner)
		return nil
	}
	if m.owner != "" {
		m.HijacksRejected++
		return fmt.Errorf("%w (%s holds %s)", ErrHeld, m.owner, m.name)
	}
	m.owner = owner
	m.grantedAt = m.kernel.Now()
	m.lastTouch = m.grantedAt
	m.Grabs++
	m.armIdleTimer()
	return nil
}

// Touch records holder activity, deferring idle reclamation.
func (m *Manager) Touch(owner string) error {
	if m.owner == "" {
		return ErrNotHeld
	}
	if m.owner != owner {
		return ErrNotOwner
	}
	m.lastTouch = m.kernel.Now()
	m.armIdleTimer()
	return nil
}

// Release voluntarily frees the session.
func (m *Manager) Release(owner string) error {
	if m.owner == "" {
		return ErrNotHeld
	}
	if m.owner != owner {
		return ErrNotOwner
	}
	m.Releases++
	m.end(Released)
	return nil
}

// ForceRelease administratively frees the session regardless of owner —
// the fallback the paper wants pervasive systems not to depend on.
func (m *Manager) ForceRelease() error {
	if m.owner == "" {
		return ErrNotHeld
	}
	m.ForcedReleases++
	m.end(Forced)
	return nil
}

func (m *Manager) armIdleTimer() {
	m.kernel.Cancel(m.idleTimer) // no-op for the zero Event
	m.idleTimer = sim.Event{}
	if m.Policy != IdleTimeout {
		return
	}
	m.idleTimer = m.kernel.ScheduleFn(m.IdleLimit, "session.idle", sessionIdle, m)
}

// sessionIdle is the ScheduleFn trampoline for the idle timer: it
// reclaims the session from a holder that went quiet.
func sessionIdle(a any) {
	m := a.(*Manager)
	if m.owner == "" {
		return
	}
	m.Reclamations++
	m.end(Reclaimed)
}

// end terminates the current session and hands it to the next waiter.
func (m *Manager) end(reason EndReason) {
	owner := m.owner
	m.owner = ""
	m.kernel.Cancel(m.idleTimer)
	m.idleTimer = sim.Event{}
	if m.OnEnd != nil {
		m.OnEnd(owner, reason)
	}
	// Hand off to the first waiter, FIFO.
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if err := m.Grab(w.owner); err == nil {
			if w.granted != nil {
				// Deliver asynchronously so the releaser's stack unwinds
				// before the new holder runs.
				m.kernel.Schedule(0, "session.handoff", w.granted)
			}
			return
		}
	}
}

// WaitFor queues owner to receive the session when it next becomes free;
// granted fires on handoff. If the session is free now, the grab happens
// immediately (and granted fires asynchronously).
func (m *Manager) WaitFor(owner string, granted func()) {
	if m.owner == "" {
		if err := m.Grab(owner); err == nil && granted != nil {
			m.kernel.Schedule(0, "session.immediateGrant", granted)
		}
		return
	}
	m.waiters = append(m.waiters, waiter{owner: owner, granted: granted})
}

// String summarizes the manager state.
func (m *Manager) String() string {
	if m.owner == "" {
		return fmt.Sprintf("session(%s): free, %d waiting", m.name, len(m.waiters))
	}
	return fmt.Sprintf("session(%s): held by %s for %v, %d waiting", m.name, m.owner, m.HeldFor(), len(m.waiters))
}

// GrabAll atomically acquires several managers for owner, or none. The
// managers are locked in a canonical (name) order, which is what makes
// the multi-user different-order scenario from the paper safe: two users
// grabbing {projection, control} in opposite orders can never deadlock or
// end up each holding one service. On failure the already-acquired
// sessions are rolled back and the holder blocking progress is reported.
func GrabAll(owner string, managers ...*Manager) error {
	sorted := make([]*Manager, len(managers))
	copy(sorted, managers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var got []*Manager
	for _, m := range sorted {
		if err := m.Grab(owner); err != nil {
			for _, g := range got {
				_ = g.Release(owner)
			}
			return fmt.Errorf("acquiring %s: %w", m.name, err)
		}
		got = append(got, m)
	}
	return nil
}

// ReleaseAll releases every manager held by owner, ignoring ones the
// owner does not hold. It returns the number released.
func ReleaseAll(owner string, managers ...*Manager) int {
	n := 0
	for _, m := range managers {
		if m.Owner() == owner {
			if m.Release(owner) == nil {
				n++
			}
		}
	}
	return n
}
