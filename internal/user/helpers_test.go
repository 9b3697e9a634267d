package user

import (
	"sort"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Get returns a proposition's value ("" when unset).
func (w *World) Get(prop string) string { return w.state[prop] }

// Snapshot copies the state for mental-model consistency checks.
func (w *World) Snapshot() map[string]string {
	out := make(map[string]string, len(w.state))
	for k, v := range w.state {
		out[k] = v
	}
	return out
}

// PlanBeliefs lists the steps the user currently believes necessary,
// in procedure order.
func (u *User) PlanBeliefs(proc Procedure) []string {
	var out []string
	for _, s := range proc.Steps {
		if v, ok := u.Mental.Belief("plan:" + s.Name); ok && v == "true" {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Forget drops a belief.
func (m *MentalModel) Forget(prop string) { delete(m.beliefs, prop) }

// Len returns the number of held beliefs.
func (m *MentalModel) Len() int { return len(m.beliefs) }

// Calm resets frustration and un-abandons (a new session, a new day).
func (u *User) Calm() {
	u.frustration = 0
	u.abandoned = false
	u.lastDecay = u.kernel.Now()
}

// GoalImportanceTotal sums the importance of all goals.
func (u *User) GoalImportanceTotal() float64 {
	total := 0.0
	for _, g := range u.Goals {
		total += g.Importance
	}
	return total
}
