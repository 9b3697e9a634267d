// Package user makes the human column of the paper's model executable.
// The paper's central claim is that "human beings are an integral part of
// pervasive computing and could not just be abstracted away"; it places
// the user at every layer:
//
//   - Physical: the body and "the signals it is capable of sending and
//     receiving" (Physiology),
//   - Resource: developed skills and abilities — language, education,
//     temperament, frustration tolerance (Faculties),
//   - Abstract: mental models whose "reasoning and expectations" must
//     stay consistent with application logic and state (MentalModel),
//   - Intentional: goals the system's design purpose must harmonize with
//     (Goal, and core.DesignPurpose on the device side).
//
// Frustration is a first-class dynamic quantity: interactions that
// frustrate faculties raise it; time decays it; crossing the tolerance
// threshold makes the user abandon the system — the paper's prediction
// "if this burden is greater than what users are willing to bear in
// meeting their goals, then the system will not be used."
package user

import (
	"fmt"
	"math"
	"sort"

	"aroma/internal/geo"
	"aroma/internal/sim"
)

// Physiology is the physical-layer user: body position and signal I/O.
type Physiology struct {
	// SpeechLevelDB is the user's speech level at 1 m (typ. 55–70).
	SpeechLevelDB float64
	// HearingFloorDB is the quietest sound level the user can attend to.
	HearingFloorDB float64
	// MinLegiblePx is the smallest on-screen feature (pixels) the user
	// can read at arm's length; higher means worse vision.
	MinLegiblePx int
	// ReachM is how far the user can physically reach.
	ReachM float64
	// SpeedMPS is walking speed for mobility.
	SpeedMPS float64
}

// DefaultPhysiology returns a typical adult.
func DefaultPhysiology() Physiology {
	return Physiology{
		SpeechLevelDB:  62,
		HearingFloorDB: 20,
		MinLegiblePx:   8,
		ReachM:         0.8,
		SpeedMPS:       1.3,
	}
}

// Faculties is the resource-layer user: what developers can count on.
type Faculties struct {
	// Languages the user can operate a UI in.
	Languages []string
	// TechSkill in [0,1]: ability to cope with "arcane features".
	TechSkill float64
	// Training maps system names to familiarity in [0,1].
	Training map[string]float64
	// FrustrationTolerance in (0,1]: the abandonment threshold.
	FrustrationTolerance float64
	// PatienceLimit is the longest UI response latency the user accepts
	// without frustration.
	PatienceLimit sim.Time
}

// Speaks reports whether the user can operate in the given language.
func (f Faculties) Speaks(lang string) bool {
	for _, l := range f.Languages {
		if l == lang {
			return true
		}
	}
	return false
}

// TrainingFor returns the user's familiarity with a named system.
func (f Faculties) TrainingFor(system string) float64 {
	return f.Training[system]
}

// ResearcherFaculties models the paper's intended audience: "a group of
// computer scientists performing pervasive computing research". They can
// fix the wireless network, the Linux adapter and the lookup service.
func ResearcherFaculties() Faculties {
	return Faculties{
		Languages:            []string{"en"},
		TechSkill:            0.95,
		Training:             map[string]float64{"smart-projector": 0.9, "vnc": 0.9, "jini": 0.9},
		FrustrationTolerance: 0.9,
		PatienceLimit:        10 * sim.Second,
	}
}

// CasualFaculties models the paper's "casual user expecting a
// commercial-grade product".
func CasualFaculties() Faculties {
	return Faculties{
		Languages:            []string{"en"},
		TechSkill:            0.35,
		Training:             map[string]float64{},
		FrustrationTolerance: 0.4,
		PatienceLimit:        2 * sim.Second,
	}
}

// Goal is an intentional-layer user goal.
type Goal struct {
	Name string
	// Needs lists the capabilities required to meet the goal.
	Needs []string
	// Importance weighs the goal in harmony scoring.
	Importance float64
}

// MentalModel is the abstract-layer user: a set of beliefs about the
// system's state that must stay consistent with reality.
type MentalModel struct {
	beliefs map[string]string
	// Surprises counts belief/reality divergences observed.
	Surprises uint64
}

// NewMentalModel creates an empty belief store.
func NewMentalModel() *MentalModel {
	return &MentalModel{beliefs: make(map[string]string)}
}

// Believe records a belief about a proposition.
func (m *MentalModel) Believe(prop, value string) { m.beliefs[prop] = value }

// Belief returns the believed value and whether the user holds one.
func (m *MentalModel) Belief(prop string) (string, bool) {
	v, ok := m.beliefs[prop]
	return v, ok
}

// Observe reconciles a belief with observed reality. If the user held a
// different belief, it counts as a surprise — the consistency violation
// of the paper's abstract layer — and the belief is corrected.
// It returns true when the observation was surprising.
func (m *MentalModel) Observe(prop, actual string) bool {
	prev, held := m.beliefs[prop]
	m.beliefs[prop] = actual
	if held && prev != actual {
		m.Surprises++
		return true
	}
	return false
}

// ConsistencyWith scores the model against an actual state map: the
// fraction of judgeable beliefs that match reality. Beliefs about
// propositions the state map does not export are unjudgeable and are
// skipped (a belief about the projector cannot contradict the laptop).
// With nothing to judge the score is 1 — no expectations, no
// inconsistency.
func (m *MentalModel) ConsistencyWith(actual map[string]string) float64 {
	judged, match := 0, 0
	for prop, believed := range m.beliefs {
		actualVal, known := actual[prop]
		if !known {
			continue
		}
		judged++
		if actualVal == believed {
			match++
		}
	}
	if judged == 0 {
		return 1
	}
	return float64(match) / float64(judged)
}

// Inconsistencies lists held beliefs that contradict the actual state
// (skipping unjudgeable propositions), sorted for determinism.
func (m *MentalModel) Inconsistencies(actual map[string]string) []string {
	var out []string
	for prop, believed := range m.beliefs {
		actualVal, known := actual[prop]
		if known && actualVal != believed {
			out = append(out, fmt.Sprintf("%s: believed %q, actually %q", prop, believed, actualVal))
		}
	}
	sort.Strings(out)
	return out
}

// User is a complete five-layer human participant.
type User struct {
	Name string
	Pos  geo.Point

	Physiology Physiology
	Faculties  Faculties
	Mental     *MentalModel
	Goals      []Goal

	kernel      *sim.Kernel
	frustration float64
	lastDecay   sim.Time
	abandoned   bool

	// FrustrationHalfLife controls decay: frustration halves every such
	// period of calm. Zero disables decay.
	FrustrationHalfLife sim.Time

	// OnAbandon fires once when frustration first crosses tolerance.
	OnAbandon func(cause string)

	// Stats
	FrustrationEvents uint64
}

// New creates a user with default physiology and an empty mental model.
func New(k *sim.Kernel, name string, fac Faculties) *User {
	return &User{
		Name:                name,
		Physiology:          DefaultPhysiology(),
		Faculties:           fac,
		Mental:              NewMentalModel(),
		kernel:              k,
		FrustrationHalfLife: 5 * sim.Minute,
	}
}

// Frustration returns the current frustration level in [0,1], applying
// any pending time decay.
func (u *User) Frustration() float64 {
	u.decay()
	return u.frustration
}

// Abandoned reports whether the user has given up on the system.
func (u *User) Abandoned() bool { return u.abandoned }

// decay applies exponential decay since the last event.
func (u *User) decay() {
	if u.FrustrationHalfLife <= 0 || u.frustration == 0 {
		u.lastDecay = u.kernel.Now()
		return
	}
	dt := u.kernel.Now() - u.lastDecay
	if dt <= 0 {
		return
	}
	halves := float64(dt) / float64(u.FrustrationHalfLife)
	u.frustration *= math.Exp2(-halves)
	if u.frustration < 1e-6 {
		u.frustration = 0
	}
	u.lastDecay = u.kernel.Now()
}

// Frustrate raises frustration by delta (clamped to [0,1]) for the given
// cause. Crossing the tolerance threshold abandons the system.
func (u *User) Frustrate(delta float64, cause string) {
	if u.abandoned || delta <= 0 {
		return
	}
	u.decay()
	u.frustration += delta
	if u.frustration > 1 {
		u.frustration = 1
	}
	u.FrustrationEvents++
	if u.frustration >= u.Faculties.FrustrationTolerance {
		u.abandoned = true
		if u.OnAbandon != nil {
			u.OnAbandon(cause)
		}
	}
}

// ExperienceLatency reacts to a UI response time: latency beyond the
// patience limit frustrates proportionally to the excess.
func (u *User) ExperienceLatency(l sim.Time, what string) {
	if l <= u.Faculties.PatienceLimit {
		return
	}
	excess := float64(l-u.Faculties.PatienceLimit) / float64(u.Faculties.PatienceLimit)
	delta := 0.05 * excess
	if delta > 0.5 {
		delta = 0.5
	}
	u.Frustrate(delta, fmt.Sprintf("slow response from %s (%v)", what, l))
}

// String summarizes the user.
func (u *User) String() string {
	state := "engaged"
	if u.abandoned {
		state = "abandoned"
	}
	return fmt.Sprintf("user(%s): frustration %.2f/%.2f, %s", u.Name, u.frustration, u.Faculties.FrustrationTolerance, state)
}
