package session

import "aroma/internal/sim"

// State is the manager's exportable state: the holder, its timing, the
// wait queue (in grant order), and the lifetime stats. The idle timer
// is a kernel event and reappears in the kernel's pending-event export.
type State struct {
	Name            string   `json:"name"`
	Owner           string   `json:"owner,omitempty"`
	GrantedAt       sim.Time `json:"granted_at"`
	LastTouch       sim.Time `json:"last_touch"`
	Waiters         []string `json:"waiters,omitempty"`
	Grabs           uint64   `json:"grabs"`
	HijacksRejected uint64   `json:"hijacks_rejected"`
	Releases        uint64   `json:"releases"`
	Reclamations    uint64   `json:"reclamations"`
	ForcedReleases  uint64   `json:"forced_releases"`
}

// ExportState captures the manager's current state in canonical form.
// The facade's WorldState has no session section yet, so only the
// session tests call it.
//
//aroma:kept checkpoint contract: the session layer's canonical state, not yet in aroma.WorldState
func (m *Manager) ExportState() State {
	st := State{
		Name:            m.name,
		Owner:           m.owner,
		GrantedAt:       m.grantedAt,
		LastTouch:       m.lastTouch,
		Grabs:           m.Grabs,
		HijacksRejected: m.HijacksRejected,
		Releases:        m.Releases,
		Reclamations:    m.Reclamations,
		ForcedReleases:  m.ForcedReleases,
	}
	for _, w := range m.waiters {
		st.Waiters = append(st.Waiters, w.owner)
	}
	return st
}
