package user

import (
	"fmt"

	"aroma/internal/sim"
)

// This file models the paper's "conceptual burden": the Smart Projector
// requires that "both clients must be started in order to project and
// control ... the VNC server must also be started on the laptop for
// projection to succeed ... when finished, the user must stop both
// clients." A Procedure encodes such an operating discipline as steps
// with preconditions and effects over a propositional world state; a
// user attempts it guided by their (possibly incomplete) mental model,
// learning from failures and accumulating frustration. Experiment C5
// Monte-Carlos this for novice vs expert users and for the original vs a
// streamlined design.

// Step is one action in an operating procedure.
type Step struct {
	Name string
	// Preconds are propositions that must equal "true" in the world
	// state before the step succeeds.
	Preconds []string
	// Effects are propositions this step sets to "true".
	Effects []string
	// Undoes are propositions this step sets to "false".
	Undoes []string
	// Difficulty in [0,1] is the step's conceptual difficulty: how hard
	// it is to perform correctly without training.
	Difficulty float64
	// Latency is the system response time the user experiences.
	Latency sim.Time
}

// Procedure is the full operating discipline for reaching a goal.
type Procedure struct {
	System string // name used for faculty training lookup
	Steps  []Step
	// GoalProp is the proposition that, once "true", means success.
	GoalProp string
}

// TotalDifficulty sums step difficulties — the design's conceptual
// burden in the paper's sense.
func (p Procedure) TotalDifficulty() float64 {
	total := 0.0
	for _, s := range p.Steps {
		total += s.Difficulty
	}
	return total
}

// World is the propositional system state a procedure manipulates.
type World struct {
	state map[string]string
}

// NewWorld creates an empty world (all propositions "false").
func NewWorld() *World { return &World{state: make(map[string]string)} }

// Set assigns a proposition.
func (w *World) Set(prop, val string) { w.state[prop] = val }

// True reports whether the proposition is "true".
func (w *World) True(prop string) bool { return w.state[prop] == "true" }

// AttemptResult reports one user's attempt at a procedure.
type AttemptResult struct {
	Success        bool
	Abandoned      bool
	StepsTried     int
	Failures       int
	Surprises      uint64
	Elapsed        sim.Time
	FrustrationEnd float64
	FailedSteps    []string
}

// Attempt has the user try to execute the procedure in the world.
//
// The user plans from their mental model: they perform the steps they
// believe are required ("plan:<step>" beliefs). An expert believes in all
// steps; a novice holds beliefs for only the obvious ones. When a step's
// precondition fails, the user is surprised (mental-model inconsistency),
// learns the missing prerequisite with probability proportional to tech
// skill, gains frustration proportional to the step's difficulty, and
// retries — until success, the retry limit, or abandonment.
//
// The knowledge probability kp for performing a step correctly is
//
//	kp = training + (1-training) * (1 - difficulty*(1-techSkill))
//
// so trained users are immune to difficulty and unskilled users suffer
// in proportion to it.
func (u *User) Attempt(proc Procedure, w *World, maxRetries int) AttemptResult {
	res := AttemptResult{}
	training := u.Faculties.TrainingFor(proc.System)
	rng := u.kernel.Rand()

	for try := 0; try <= maxRetries; try++ {
		if u.Abandoned() {
			break
		}
		// Execute the steps the user believes in, in procedure order.
		for _, step := range proc.Steps {
			if u.Abandoned() {
				break
			}
			believed, held := u.Mental.Belief("plan:" + step.Name)
			if held && believed != "true" {
				continue // user believes the step unnecessary
			}
			if !held && training < 0.5 {
				// Novice without a belief skips non-obvious steps.
				continue
			}
			res.StepsTried++
			// Performing the step takes its latency; slow responses
			// frustrate impatient users. Attempts run between simulation
			// events, so elapsed time is accounted in the result rather
			// than on the kernel clock.
			res.Elapsed += step.Latency
			u.ExperienceLatency(step.Latency, step.Name)

			// Check preconditions against the real world.
			missing := ""
			for _, pre := range step.Preconds {
				if !w.True(pre) {
					missing = pre
					break
				}
			}
			if missing != "" {
				res.Failures++
				res.FailedSteps = append(res.FailedSteps, step.Name)
				u.Mental.Observe("state:"+missing, "false")
				u.Frustrate(0.1+0.3*step.Difficulty, fmt.Sprintf("%s failed: %s not ready", step.Name, missing))
				// Learn which earlier step provides the prerequisite.
				if provider := providerOf(proc, missing); provider != "" && rng.Float64() < 0.3+0.7*u.Faculties.TechSkill {
					u.Mental.Believe("plan:"+provider, "true")
				}
				continue
			}
			// Slips: even with satisfied preconditions, a hard step can
			// be fumbled by the untrained.
			kp := training + (1-training)*(1-step.Difficulty*(1-u.Faculties.TechSkill))
			if rng.Float64() > kp {
				res.Failures++
				res.FailedSteps = append(res.FailedSteps, step.Name)
				u.Frustrate(0.05+0.2*step.Difficulty, fmt.Sprintf("%s fumbled", step.Name))
				continue
			}
			// Step succeeds: apply effects.
			for _, eff := range step.Effects {
				w.Set(eff, "true")
				u.Mental.Observe("state:"+eff, "true")
			}
			for _, un := range step.Undoes {
				w.Set(un, "false")
				u.Mental.Observe("state:"+un, "false")
			}
		}
		if w.True(proc.GoalProp) {
			res.Success = true
			break
		}
		// Goal not reached: the user notices and becomes frustrated with
		// the whole system, then retries with the improved model.
		u.Frustrate(0.08, "goal not reached after following the procedure")
	}
	res.Abandoned = u.Abandoned()
	res.Surprises = u.Mental.Surprises
	res.FrustrationEnd = u.Frustration()
	return res
}

// providerOf finds the step whose effects include the proposition.
func providerOf(proc Procedure, prop string) string {
	for _, s := range proc.Steps {
		for _, e := range s.Effects {
			if e == prop {
				return s.Name
			}
		}
	}
	return ""
}

// LearnAll gives the user a complete plan belief set for the procedure —
// the expert's mental model.
func (u *User) LearnAll(proc Procedure) {
	for _, s := range proc.Steps {
		u.Mental.Believe("plan:"+s.Name, "true")
	}
}

// LearnSteps gives the user beliefs for a subset of step names — the
// novice's partial model (e.g. "press project" but not "start the VNC
// server first").
func (u *User) LearnSteps(proc Procedure, names ...string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, s := range proc.Steps {
		if want[s.Name] {
			u.Mental.Believe("plan:"+s.Name, "true")
		} else {
			u.Mental.Believe("plan:"+s.Name, "false")
		}
	}
}
