package core

import (
	"slices"
	"strings"
	"testing"

	"aroma/internal/device"
	"aroma/internal/sim"
	"aroma/internal/trace"
)

const sampleDoc = `{
  "name": "museum-guide",
  "devices": [
    {
      "name": "guide-pad",
      "x": 3, "y": 4,
      "preset": "pda",
      "languages": ["en", "fr"],
      "appState": {"tour.active": "true", "exhibit": "dinosaurs"},
      "purpose": "handheld museum tour guide",
      "capabilities": {"tour-guidance": 0.8, "walk-up-use": 0.7},
      "assumedSkill": 0.2
    },
    {
      "name": "exhibit-beacon",
      "x": 5, "y": 4,
      "memBytes": 1048576,
      "exeMIPS": 10,
      "singleThreaded": true,
      "noAbort": true,
      "purpose": "location beacon",
      "capabilities": {"positioning": 0.9},
      "assumedSkill": 0.9
    }
  ],
  "users": [
    {
      "name": "visitor",
      "x": 3, "y": 4.5,
      "preset": "casual",
      "languages": ["fr"],
      "beliefs": {"tour.active": "true"},
      "goals": [
        {"name": "enjoy the tour", "needs": ["tour-guidance"], "importance": 2},
        {"name": "no fiddling", "needs": ["walk-up-use"], "importance": 1}
      ],
      "operates": ["guide-pad"]
    }
  ],
  "links": [{"a": "guide-pad", "b": "exhibit-beacon"}]
}`

func TestLoadSystemFullDocument(t *testing.T) {
	k := sim.New(1)
	sys, err := LoadSystem(k, []byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "museum-guide" || len(sys.Devices) != 2 || len(sys.Users) != 1 || len(sys.Links) != 1 {
		t.Fatalf("loaded shape wrong: %+v", sys)
	}
	pad := sys.Device("guide-pad")
	if pad == nil {
		t.Fatal("guide-pad missing")
	}
	// Preset applied with overrides.
	if pad.Spec.Exec != device.SingleThreaded {
		t.Fatal("pda preset lost")
	}
	if !slices.Contains(pad.Spec.UI.Languages, "fr") {
		t.Fatal("language override lost")
	}
	if pad.AppState["exhibit"] != "dinosaurs" {
		t.Fatal("app state lost")
	}
	if pad.Purpose.AssumedSkill != 0.2 {
		t.Fatal("purpose lost")
	}
	beacon := sys.Device("exhibit-beacon")
	if beacon.Spec.ExeMIPS != 10 || beacon.Spec.AllowAbort {
		t.Fatalf("explicit spec fields lost: %+v", beacon.Spec)
	}
	visitor := sys.Users[0]
	if !visitor.U.Faculties.Speaks("fr") || visitor.U.Faculties.Speaks("en") {
		t.Fatal("user language override lost")
	}
	if v, ok := visitor.U.Mental.Belief("tour.active"); !ok || v != "true" {
		t.Fatal("beliefs lost")
	}
	if len(visitor.U.Goals) != 2 {
		t.Fatal("goals lost")
	}

	// The loaded system must be analyzable end to end.
	rep := Analyze(sys, true)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings from loaded system")
	}
	// The French visitor on a French-speaking pad: no language violation.
	for _, f := range rep.ByLayer(Resource) {
		if strings.Contains(f.Detail, "no common language") {
			t.Fatalf("spurious language violation: %v", f)
		}
	}
	// The beacon's design skill (0.9) does not matter — the visitor
	// doesn't operate it. The pad assumes 0.2 <= casual 0.35: fine. But
	// the link without radios must surface as unverifiable.
	envFinds := rep.ByLayer(Environment)
	foundUnverifiable := false
	for _, f := range envFinds {
		if strings.Contains(f.Detail, "cannot be verified") {
			foundUnverifiable = true
		}
	}
	if !foundUnverifiable {
		t.Fatalf("radio-less link should be flagged unverifiable: %v", envFinds)
	}
}

func TestLoadSystemErrors(t *testing.T) {
	k := sim.New(1)
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", "not json"},
		{"no name", `{"devices":[],"users":[]}`},
		{"unnamed device", `{"name":"x","devices":[{"x":1}]}`},
		{"dup device", `{"name":"x","devices":[{"name":"a"},{"name":"a"}]}`},
		{"bad preset", `{"name":"x","devices":[{"name":"a","preset":"mainframe"}]}`},
		{"unnamed user", `{"name":"x","users":[{"operates":[]}]}`},
		{"bad user preset", `{"name":"x","users":[{"name":"u","preset":"wizard","operates":[]}]}`},
		{"unknown operated", `{"name":"x","users":[{"name":"u","operates":["ghost"]}]}`},
		{"unknown link", `{"name":"x","devices":[{"name":"a"}],"links":[{"a":"a","b":"ghost"}]}`},
	}
	for _, c := range cases {
		if _, err := LoadSystem(k, []byte(c.doc)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestLoadSystemDefaults(t *testing.T) {
	k := sim.New(1)
	sys, err := LoadSystem(k, []byte(`{
	  "name": "minimal",
	  "devices": [{"name": "thing"}],
	  "users": [{"name": "someone", "operates": ["thing"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d := sys.Device("thing")
	if d.Spec.MemBytes <= 0 || d.Spec.ExeMIPS <= 0 {
		t.Fatal("default spec not applied")
	}
	u := sys.Users[0].U
	if !u.Faculties.Speaks("en") || u.Faculties.TechSkill <= 0 {
		t.Fatal("default faculties not applied")
	}
	rep := Analyze(sys, true)
	if rep.CountBySeverity(trace.Violation) != 0 {
		t.Fatalf("minimal defaults should analyze clean: %v", rep.Violations())
	}
}
