// Package core implements the paper's primary contribution: the Layered
// Pervasive Computing (LPC) conceptual model — five layers (Environment,
// Physical, Resource, Abstract, Intentional) with the human user
// represented at every layer — as an executable, checkable framework.
//
// A System assembles device entities, user entities, an environment and
// the communication links between them. Analyze evaluates the paper's
// four cross-layer relations plus environment compatibility:
//
//	Intentional: design purpose  "must be in harmony with"   user goals
//	Abstract:    application     "must be consistent with"   mental models
//	Resource:    device resources "must not be frustrated by" user faculties
//	Physical:    physical device "must be compatible with"   physical user
//	Environment: physical entities "communicate with" one another through it
//
// and produces a Report that classifies every finding into its layer —
// the workflow the paper demonstrates manually in its Smart Projector
// analysis section. The analyzer can also be run with the user column
// disabled (the OSI-style view the paper argues against), which is the
// ablation showing which issues become invisible.
//
// Most callers should not assemble a System by hand: the pkg/aroma
// facade builds one from a running world (AddDevice / AddUser / Link)
// and folds the runtime trace in via World.Analyze.
package core

import (
	"fmt"
	"sort"

	"aroma/internal/device"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/trace"
	"aroma/internal/user"
)

// Layer aliases the five LPC layers (defined in internal/trace so that
// running systems can tag events without importing core).
type Layer = trace.Layer

// The five layers, re-exported for callers of this package.
const (
	Environment = trace.Environment
	Physical    = trace.Physical
	Resource    = trace.Resource
	Abstract    = trace.Abstract
	Intentional = trace.Intentional
)

// Relation names the cross-layer predicate a finding came from, using
// the paper's own phrasing.
type Relation string

// The model's relations (Figures 2–5).
const (
	RelCommunicatesVia Relation = "communicates with (via environment)"
	RelCompatibleWith  Relation = "must be compatible with"
	RelNotFrustratedBy Relation = "must not be frustrated by"
	RelConsistentWith  Relation = "must be consistent with"
	RelInHarmonyWith   Relation = "must be in harmony with"
)

// RelationFor returns the paper's relation for each layer.
func RelationFor(l Layer) Relation {
	switch l {
	case Environment:
		return RelCommunicatesVia
	case Physical:
		return RelCompatibleWith
	case Resource:
		return RelNotFrustratedBy
	case Abstract:
		return RelConsistentWith
	case Intentional:
		return RelInHarmonyWith
	default:
		return Relation(fmt.Sprintf("unknown(%d)", int(l)))
	}
}

// DesignPurpose is the intentional layer of a device: why it was built
// and for whom.
type DesignPurpose struct {
	Description string
	// Capabilities maps capability names to delivered quality in [0,1]
	// (e.g. "remote-projection": 0.9, "zero-config": 0.2 for a research
	// prototype).
	Capabilities map[string]float64
	// AssumedSkill is the tech skill in [0,1] the design assumes of its
	// users (a research prototype assumes ~0.9; a commercial product
	// should assume ~0.2).
	AssumedSkill float64
}

// HarmonyWith scores the purpose against a user's goals in [0,1]: the
// importance-weighted quality with which each goal's needed capabilities
// are delivered. No goals scores 1 (nothing to disappoint).
func (p DesignPurpose) HarmonyWith(goals []user.Goal) float64 {
	totalImp := 0.0
	score := 0.0
	for _, g := range goals {
		totalImp += g.Importance
		if len(g.Needs) == 0 {
			score += g.Importance
			continue
		}
		worst := 1.0
		for _, need := range g.Needs {
			q := p.Capabilities[need]
			if q < worst {
				worst = q
			}
		}
		score += g.Importance * worst
	}
	if totalImp == 0 {
		return 1
	}
	return score / totalImp
}

// DeviceEntity is the device column of the model for one appliance.
type DeviceEntity struct {
	Name string
	Pos  geo.Point

	// Spec is the resource layer (Mem/Sto/Exe/UI/Net classes).
	Spec device.Spec
	// Radio, optional: the physical network interface.
	Radio *radio.Radio
	// AppState is the abstract layer: the application's exported state
	// propositions (compared against user mental models).
	AppState map[string]string
	// Purpose is the intentional layer.
	Purpose DesignPurpose
	// OperatingRangeM: a user must be within this distance to operate
	// the device (0 disables the check). The paper's example: the
	// presenter is physically constrained to the laptop.
	OperatingRangeM float64
}

// UserEntity is the user column: a five-layer human plus which devices
// they operate.
type UserEntity struct {
	U *user.User
	// Operates lists device names this user interacts with.
	Operates []string
	// UsesVoice marks that this user drives devices by voice (enables
	// the environment-layer noise check).
	UsesVoice bool
}

// Link declares that two devices must communicate over the wireless
// medium (environment-layer reachability is checked for each link).
type Link struct {
	A, B string
}

// System is a complete LPC description of a pervasive computing system.
type System struct {
	Name    string
	Env     *env.Environment
	Medium  *radio.Medium
	Devices []*DeviceEntity
	Users   []*UserEntity
	Links   []Link
	// Log, optional: a runtime trace whose Issue+ events are folded into
	// the analysis (how running substrates report concerns).
	Log *trace.Log
}

// Device returns the named device entity, or nil.
func (s *System) Device(name string) *DeviceEntity {
	for _, d := range s.Devices {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// AddDevice appends a device entity and returns it.
func (s *System) AddDevice(d *DeviceEntity) *DeviceEntity {
	s.Devices = append(s.Devices, d)
	return d
}

// AddUser appends a user entity and returns it.
func (s *System) AddUser(u *UserEntity) *UserEntity {
	s.Users = append(s.Users, u)
	return u
}

// Severity grades findings, mirroring trace severities.
type Severity = trace.Severity

// Finding is one classified concern.
type Finding struct {
	Layer    Layer
	Severity Severity
	Relation Relation
	Subject  string // which entity/pair the finding concerns
	Detail   string
}

// String renders the finding on one line.
func (f Finding) String() string {
	return fmt.Sprintf("[%-11s] %-9s %-40q %s", f.Layer, f.Severity, f.Subject, f.Detail)
}

// Report is the output of an analysis.
type Report struct {
	SystemName string
	UserColumn bool
	Findings   []Finding
}

// ByLayer returns the findings for one layer, in order.
func (r *Report) ByLayer(l Layer) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Layer == l {
			out = append(out, f)
		}
	}
	return out
}

// CountBySeverity returns how many findings have at least the given
// severity.
func (r *Report) CountBySeverity(min Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity >= min {
			n++
		}
	}
	return n
}

// Violations returns findings at Violation severity.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity >= trace.Violation {
			out = append(out, f)
		}
	}
	return out
}

const (
	// consistencyThreshold is the minimum mental-model consistency
	// score before the abstract layer flags a violation.
	consistencyThreshold = 0.75
	// harmonyThreshold is the minimum goal harmony before the
	// intentional layer flags a violation.
	harmonyThreshold = 0.5
)

// Analyze runs every layer's relation checks over the system and returns
// the classified findings. userColumn enables the user side of every
// layer — the paper's contribution; false yields the OSI-style
// device-only view (the ablation arm).
func Analyze(s *System, userColumn bool) *Report {
	r := &Report{SystemName: s.Name, UserColumn: userColumn}
	checkEnvironment(s, userColumn, r)
	checkPhysical(s, userColumn, r)
	checkResource(s, userColumn, r)
	checkAbstract(s, userColumn, r)
	checkIntentional(s, userColumn, r)
	foldTrace(s, r)
	sort.SliceStable(r.Findings, func(i, j int) bool { return r.Findings[i].Layer < r.Findings[j].Layer })
	return r
}

func add(r *Report, l Layer, sev Severity, subject, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Layer: l, Severity: sev, Relation: RelationFor(l),
		Subject: subject, Detail: fmt.Sprintf(format, args...),
	})
}

// checkEnvironment verifies link reachability through the shared medium
// and (user column) voice operation against ambient noise.
func checkEnvironment(s *System, userColumn bool, r *Report) {
	for _, ln := range s.Links {
		a, b := s.Device(ln.A), s.Device(ln.B)
		if a == nil || b == nil {
			add(r, Environment, trace.Issue, ln.A+"<->"+ln.B, "link references unknown device")
			continue
		}
		if a.Radio == nil || b.Radio == nil || s.Medium == nil {
			add(r, Environment, trace.Issue, ln.A+"<->"+ln.B, "link without radios cannot be verified")
			continue
		}
		snr := s.Medium.SNRAtDBm(a.Radio, b.Radio)
		rate := radio.PickRate(snr)
		switch {
		case snr < radio.Rates[0].MinSINRdB:
			add(r, Environment, trace.Violation, ln.A+"<->"+ln.B,
				"radio link infeasible: SNR %.1f dB below minimum %.1f dB at %.0f m",
				snr, radio.Rates[0].MinSINRdB, a.Pos.Dist(b.Pos))
		case rate.Mbps < radio.Rates[len(radio.Rates)-1].Mbps:
			add(r, Environment, trace.Issue, ln.A+"<->"+ln.B,
				"degraded link: SNR %.1f dB limits rate to %.1f Mb/s", snr, rate.Mbps)
		default:
			add(r, Environment, trace.Info, ln.A+"<->"+ln.B,
				"link healthy: SNR %.1f dB, %.1f Mb/s", snr, rate.Mbps)
		}
	}
	if !userColumn || s.Env == nil {
		return
	}
	for _, ue := range s.Users {
		if !ue.UsesVoice {
			continue
		}
		for _, devName := range ue.Operates {
			d := s.Device(devName)
			if d == nil || !d.Spec.UI.HasInput("voice") {
				continue
			}
			snr := s.Env.SpeechSNRDB(ue.U.Pos, d.Pos, ue.U.Physiology.SpeechLevelDB)
			p := env.RecognitionSuccessProbability(snr)
			if p < 0.7 {
				add(r, Environment, trace.Violation, ue.U.Name+"->"+devName,
					"background noise defeats voice control: speech SNR %.1f dB, recognition p=%.2f", snr, p)
			} else {
				add(r, Environment, trace.Info, ue.U.Name+"->"+devName,
					"voice control viable: speech SNR %.1f dB, recognition p=%.2f", snr, p)
			}
		}
	}
}

// checkPhysical verifies physical compatibility between users and the
// devices they operate.
func checkPhysical(s *System, userColumn bool, r *Report) {
	for _, d := range s.Devices {
		if d.OperatingRangeM > 0 {
			add(r, Physical, trace.Issue, d.Name,
				"operation requires physical proximity within %.1f m — constrains user mobility", d.OperatingRangeM)
		}
	}
	if !userColumn {
		return
	}
	for _, ue := range s.Users {
		for _, devName := range ue.Operates {
			d := s.Device(devName)
			if d == nil {
				add(r, Physical, trace.Issue, ue.U.Name, "operates unknown device %q", devName)
				continue
			}
			if d.OperatingRangeM > 0 {
				dist := ue.U.Pos.Dist(d.Pos)
				if dist > d.OperatingRangeM {
					add(r, Physical, trace.Violation, ue.U.Name+"->"+d.Name,
						"user is %.1f m from device needing %.1f m proximity", dist, d.OperatingRangeM)
				}
			}
			ui := d.Spec.UI
			if ui.DisplayW > 0 && ui.DisplayH > 0 {
				// A display shorter than ~40 minimum-legible units cannot
				// render a usable interface for this user's vision.
				if ui.DisplayH < 40*ue.U.Physiology.MinLegiblePx/8 {
					add(r, Physical, trace.Violation, ue.U.Name+"->"+d.Name,
						"display %dx%d illegible for user needing %d px features",
						ui.DisplayW, ui.DisplayH, ue.U.Physiology.MinLegiblePx)
				}
			}
			if ui.HasInput("voice") && ue.U.Physiology.SpeechLevelDB <= 0 {
				add(r, Physical, trace.Violation, ue.U.Name+"->"+d.Name,
					"voice-only interface but user cannot produce speech signals")
			}
		}
	}
}

// checkResource verifies that device resources do not frustrate user
// faculties.
func checkResource(s *System, userColumn bool, r *Report) {
	for _, d := range s.Devices {
		if d.Spec.Exec == device.SingleThreaded && !d.Spec.AllowAbort {
			add(r, Resource, trace.Issue, d.Name,
				"single-threaded engine with no abort: unabortable tasks cause needless frustration")
		}
	}
	if !userColumn {
		return
	}
	for _, ue := range s.Users {
		for _, devName := range ue.Operates {
			d := s.Device(devName)
			if d == nil {
				continue
			}
			ui := d.Spec.UI
			if len(ui.Languages) > 0 {
				common := false
				for _, l := range ui.Languages {
					if ue.U.Faculties.Speaks(l) {
						common = true
						break
					}
				}
				if !common {
					add(r, Resource, trace.Violation, ue.U.Name+"->"+d.Name,
						"no common language: device %v, user %v", ui.Languages, ue.U.Faculties.Languages)
				}
			}
			if ui.BaseLatency > ue.U.Faculties.PatienceLimit {
				add(r, Resource, trace.Violation, ue.U.Name+"->"+d.Name,
					"UI latency %v exceeds user patience %v", ui.BaseLatency, ue.U.Faculties.PatienceLimit)
			}
			if d.Purpose.AssumedSkill > ue.U.Faculties.TechSkill+1e-9 {
				add(r, Resource, trace.Violation, ue.U.Name+"->"+d.Name,
					"design assumes tech skill %.2f but user has %.2f — developer-as-user fallacy",
					d.Purpose.AssumedSkill, ue.U.Faculties.TechSkill)
			}
		}
	}
}

// checkAbstract verifies mental-model consistency with application state.
func checkAbstract(s *System, userColumn bool, r *Report) {
	if !userColumn {
		return
	}
	for _, ue := range s.Users {
		for _, devName := range ue.Operates {
			d := s.Device(devName)
			if d == nil || d.AppState == nil {
				continue
			}
			score := ue.U.Mental.ConsistencyWith(d.AppState)
			if score < consistencyThreshold {
				inc := ue.U.Mental.Inconsistencies(d.AppState)
				detail := fmt.Sprintf("mental model consistency %.2f below %.2f", score, consistencyThreshold)
				if len(inc) > 0 {
					detail += " — " + inc[0]
					if len(inc) > 1 {
						detail += fmt.Sprintf(" (and %d more)", len(inc)-1)
					}
				}
				add(r, Abstract, trace.Violation, ue.U.Name+"->"+d.Name, "%s", detail)
			} else {
				add(r, Abstract, trace.Info, ue.U.Name+"->"+d.Name,
					"mental model consistent (%.2f)", score)
			}
		}
	}
}

// checkIntentional verifies design-purpose/goal harmony.
func checkIntentional(s *System, userColumn bool, r *Report) {
	if !userColumn {
		return
	}
	for _, ue := range s.Users {
		if len(ue.U.Goals) == 0 {
			continue
		}
		for _, devName := range ue.Operates {
			d := s.Device(devName)
			if d == nil {
				continue
			}
			h := d.Purpose.HarmonyWith(ue.U.Goals)
			if h < harmonyThreshold {
				add(r, Intentional, trace.Violation, ue.U.Name+"->"+d.Name,
					"design purpose not in harmony with user goals: score %.2f < %.2f (%s)",
					h, harmonyThreshold, d.Purpose.Description)
			} else {
				add(r, Intentional, trace.Info, ue.U.Name+"->"+d.Name,
					"goals in harmony with design purpose: score %.2f", h)
			}
		}
	}
}

// foldTrace imports Issue+ runtime events as findings in their layer.
func foldTrace(s *System, r *Report) {
	if s.Log == nil {
		return
	}
	for _, ev := range s.Log.BySeverity(trace.Issue) {
		r.Findings = append(r.Findings, Finding{
			Layer: ev.Layer, Severity: ev.Severity, Relation: RelationFor(ev.Layer),
			Subject: ev.Entity, Detail: ev.Message() + fmt.Sprintf(" (observed at %v)", ev.At),
		})
	}
}
