package core

import (
	"strings"
	"testing"

	"aroma/internal/device"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
)

// TestPaperAnalysisFidelity encodes the paper's own Smart Projector
// walkthrough (its "Analysis of a Pervasive Computing System" section)
// as assertions: every concern the authors classified by hand must be
// surfaced by the analyzer in the same layer, when the corresponding
// condition is modelled.
func TestPaperAnalysisFidelity(t *testing.T) {
	k := sim.New(1)

	// The lab as the paper describes it, but with the conditions that
	// trigger each of the paper's concerns dialled in:
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 30, 20))
	e := env.New(k, plan)
	med := radio.NewMedium(k, e)
	log := trace.NewForKernel(k)

	sys := &System{Name: "smart-projector-paper", Env: e, Medium: med, Log: log}

	// The laptop constrains the presenter physically (paper, Physical
	// layer: "directly constrains the presenter by requiring physical
	// proximity to the laptop").
	sys.AddDevice(&DeviceEntity{
		Name: "laptop", Pos: geo.Pt(5, 10), Spec: device.LaptopSpec(),
		Radio:           med.NewRadio("laptop", geo.Pt(5, 10), 6, 15),
		OperatingRangeM: 0.8,
		AppState:        map[string]string{"vnc.running": "false"}, // user forgot
		Purpose: DesignPurpose{
			Description:  "presentation laptop",
			Capabilities: map[string]float64{"present-slides": 0.9},
			AssumedSkill: 0.3,
		},
	})
	// The projector with a voice-control interface variant (the paper's
	// future version) so the environment-layer noise concern applies.
	projSpec := device.AromaAdapterSpec()
	projSpec.UI.InputMethods = append(projSpec.UI.InputMethods, "voice")
	sys.AddDevice(&DeviceEntity{
		Name: "projector", Pos: geo.Pt(25, 10), Spec: projSpec,
		Radio:    med.NewRadio("projector", geo.Pt(25, 10), 6, 15),
		AppState: map[string]string{"projecting": "false", "projection.owner": "none"},
		Purpose: DesignPurpose{
			Description:  "research vehicle to research, measure and demonstrate service discovery",
			Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2},
			AssumedSkill: 0.9, // "capable of fixing ... the wireless network, the Linux-based adapter, and the lookup service"
		},
	})
	sys.Links = []Link{{A: "laptop", B: "projector"}}

	// The paper's out-of-scope user: a casual presenter in a noisy room,
	// holding a stale mental model of the projector.
	e.AddNoiseSource("audience chatter", geo.Pt(24, 10), 70)
	casual := user.New(k, "casual-presenter", user.CasualFaculties())
	casual.Pos = geo.Pt(25.5, 10) // at the projector, trying voice control
	casual.Goals = []user.Goal{
		{Name: "present", Needs: []string{"remote-projection"}, Importance: 3},
		{Name: "no unnecessary interconnection and configuration", Needs: []string{"zero-config"}, Importance: 2},
	}
	casual.Mental.Believe("projecting", "true") // believes it is already up
	sys.AddUser(&UserEntity{U: casual, Operates: []string{"laptop", "projector"}, UsesVoice: true})

	// Runtime concerns reported by the live substrates (paper: low
	// bandwidth prevents rapid animation; 2.4 GHz concentration).
	log.Issue(trace.Physical, "wlan", "low bandwidth of wireless adapters prevents rapid animation")
	log.Issue(trace.Environment, "band", "high concentration of 2.4GHz devices: interference observed")

	rep := Analyze(sys, true)

	// Each row: the paper's concern, the layer it filed it under, and a
	// substring the analyzer's finding must contain.
	expectations := []struct {
		concern string
		layer   Layer
		substr  string
	}{
		{"physical proximity to the laptop constrains the presenter", Physical, "proximity"},
		{"low wireless bandwidth", Physical, "rapid animation"},
		{"2.4 GHz device concentration", Environment, "concentration"},
		{"background noise defeats voice recognition", Environment, "noise"},
		{"assumed faculties: users expected to fix the infrastructure", Resource, "developer-as-user"},
		{"stale mental model of projector state", Abstract, "consistency"},
		{"research-oriented design not in harmony with casual goals", Intentional, "harmony"},
	}
	for _, want := range expectations {
		found := false
		for _, f := range rep.ByLayer(want.layer) {
			if strings.Contains(f.Detail, want.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("paper concern %q not surfaced in %v layer (looking for %q)\n%s",
				want.concern, want.layer, want.substr, rep.Render())
		}
	}

	// And the paper's bottom line: for the intended researcher audience
	// the same design is in harmony.
	k2 := sim.New(1)
	researcher := user.New(k2, "researcher", user.ResearcherFaculties())
	researcher.Goals = []user.Goal{
		{Name: "research, measure, demonstrate discovery", Needs: []string{"remote-projection"}, Importance: 1},
	}
	sysR := &System{Name: "intended-audience"}
	sysR.AddDevice(sys.Devices[1])
	sysR.AddUser(&UserEntity{U: researcher, Operates: []string{"projector"}})
	repR := Analyze(sysR, true)
	for _, f := range repR.ByLayer(Intentional) {
		if f.Severity >= trace.Violation {
			t.Errorf("researcher should be in harmony with the prototype: %v", f)
		}
	}
}
