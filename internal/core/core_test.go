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

// projectorSystem builds a compact Smart Projector scenario: a presenter
// with a laptop, the smart projector (adapter), and a lookup service.
func projectorSystem(k *sim.Kernel, presenterFac user.Faculties) *System {
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 30, 20))
	e := env.New(k, plan)
	med := radio.NewMedium(k, e)

	laptopRadio := med.NewRadio("laptop", geo.Pt(5, 10), 6, 15)
	projRadio := med.NewRadio("projector", geo.Pt(25, 10), 6, 15)

	sys := &System{Name: "smart-projector", Env: e, Medium: med}
	laptop := sys.AddDevice(&DeviceEntity{
		Name: "laptop", Pos: geo.Pt(5, 10), Spec: device.LaptopSpec(), Radio: laptopRadio,
		AppState:        map[string]string{"vnc.running": "true", "session.owner": "alice"},
		OperatingRangeM: 0.8,
		Purpose: DesignPurpose{
			Description:  "general-purpose presentation laptop",
			Capabilities: map[string]float64{"present-slides": 0.9},
			AssumedSkill: 0.3,
		},
	})
	_ = laptop
	sys.AddDevice(&DeviceEntity{
		Name: "projector", Pos: geo.Pt(25, 10), Spec: device.AromaAdapterSpec(), Radio: projRadio,
		AppState: map[string]string{"projecting": "true", "session.owner": "alice"},
		Purpose: DesignPurpose{
			Description:  "research vehicle for service discovery measurement",
			Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2},
			AssumedSkill: 0.9,
		},
	})
	sys.Links = append(sys.Links, Link{A: "laptop", B: "projector"})

	alice := user.New(k, "alice", presenterFac)
	alice.Pos = geo.Pt(5, 10.5)
	alice.Goals = []user.Goal{
		{Name: "make the presentation", Needs: []string{"remote-projection"}, Importance: 3},
		{Name: "no fiddling with config", Needs: []string{"zero-config"}, Importance: 2},
	}
	alice.Mental.Believe("projecting", "true")
	alice.Mental.Believe("session.owner", "alice")
	sys.AddUser(&UserEntity{U: alice, Operates: []string{"laptop", "projector"}})
	return sys
}

func TestRelationForEachLayer(t *testing.T) {
	want := map[Layer]Relation{
		Environment: RelCommunicatesVia,
		Physical:    RelCompatibleWith,
		Resource:    RelNotFrustratedBy,
		Abstract:    RelConsistentWith,
		Intentional: RelInHarmonyWith,
	}
	for l, rel := range want {
		if RelationFor(l) != rel {
			t.Errorf("RelationFor(%v) = %v", l, RelationFor(l))
		}
	}
	if !strings.Contains(string(RelationFor(Layer(99))), "unknown") {
		t.Error("unknown layer relation")
	}
}

func TestHarmonyScoring(t *testing.T) {
	p := DesignPurpose{Capabilities: map[string]float64{"a": 1.0, "b": 0.5}}
	goals := []user.Goal{
		{Name: "g1", Needs: []string{"a"}, Importance: 1},
		{Name: "g2", Needs: []string{"b"}, Importance: 1},
	}
	if h := p.HarmonyWith(goals); h != 0.75 {
		t.Fatalf("harmony = %v, want 0.75", h)
	}
	// Missing capability scores zero for that goal.
	goals = append(goals, user.Goal{Name: "g3", Needs: []string{"zz"}, Importance: 2})
	if h := p.HarmonyWith(goals); h != 0.375 {
		t.Fatalf("harmony = %v, want 0.375", h)
	}
	// No goals: vacuous harmony.
	if h := p.HarmonyWith(nil); h != 1 {
		t.Fatalf("empty harmony = %v", h)
	}
	// Needless goal counts fully.
	if h := p.HarmonyWith([]user.Goal{{Name: "free", Importance: 1}}); h != 1 {
		t.Fatalf("needless harmony = %v", h)
	}
}

func TestAnalyzeResearcherScenario(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.ResearcherFaculties())
	r := Analyze(sys, true)
	if r.SystemName != "smart-projector" || !r.UserColumn {
		t.Fatal("report metadata wrong")
	}
	// The researcher is the intended audience: no resource-layer skill
	// violation expected, link healthy.
	for _, f := range r.ByLayer(Resource) {
		if f.Severity >= trace.Violation && strings.Contains(f.Detail, "tech skill") {
			t.Fatalf("researcher flagged for skill: %v", f)
		}
	}
	envFinds := r.ByLayer(Environment)
	if len(envFinds) == 0 {
		t.Fatal("no environment findings for a linked system")
	}
	healthy := false
	for _, f := range envFinds {
		if strings.Contains(f.Detail, "link healthy") || strings.Contains(f.Detail, "degraded") {
			healthy = true
		}
	}
	if !healthy {
		t.Fatalf("link not assessed: %v", envFinds)
	}
	// The physical proximity constraint the paper calls out must appear.
	phys := r.ByLayer(Physical)
	foundProximity := false
	for _, f := range phys {
		if strings.Contains(f.Detail, "proximity") {
			foundProximity = true
		}
	}
	if !foundProximity {
		t.Fatalf("laptop proximity constraint missing: %v", phys)
	}
}

func TestAnalyzeCasualUserFindsMoreViolations(t *testing.T) {
	k := sim.New(1)
	resSys := projectorSystem(k, user.ResearcherFaculties())
	casSys := projectorSystem(k, user.CasualFaculties())
	rRes := Analyze(resSys, true)
	rCas := Analyze(casSys, true)
	if len(rCas.Violations()) <= len(rRes.Violations()) {
		t.Fatalf("casual violations (%d) should exceed researcher (%d)",
			len(rCas.Violations()), len(rRes.Violations()))
	}
	// The casual user must trip the developer-as-user fallacy.
	found := false
	for _, f := range rCas.ByLayer(Resource) {
		if strings.Contains(f.Detail, "developer-as-user") {
			found = true
		}
	}
	if !found {
		t.Fatal("assumed-skill violation missing for casual user")
	}
	// And the intentional layer must flag the zero-config goal.
	intent := rCas.ByLayer(Intentional)
	harmonyViolation := false
	for _, f := range intent {
		if f.Severity >= trace.Violation {
			harmonyViolation = true
		}
	}
	if !harmonyViolation {
		t.Fatalf("no harmony violation for casual user: %v", intent)
	}
}

func TestUserColumnAblationHidesIssues(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.CasualFaculties())
	full := Analyze(sys, true)
	deviceOnly := Analyze(sys, false)
	if len(deviceOnly.Findings) >= len(full.Findings) {
		t.Fatalf("device-only (%d findings) should see less than full (%d)",
			len(deviceOnly.Findings), len(full.Findings))
	}
	if len(deviceOnly.ByLayer(Abstract)) != 0 || len(deviceOnly.ByLayer(Intentional)) != 0 {
		t.Fatal("device-only view should have no abstract/intentional findings")
	}
	if len(deviceOnly.Violations()) >= len(full.Violations()) {
		t.Fatal("ablation should hide violations")
	}
}

func TestMentalModelInconsistencyFlagged(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.ResearcherFaculties())
	// The user believes they still own the session, but it was reclaimed.
	sys.Device("projector").AppState["session.owner"] = "none"
	sys.Device("projector").AppState["projecting"] = "false"
	r := Analyze(sys, true)
	found := false
	for _, f := range r.ByLayer(Abstract) {
		if f.Severity >= trace.Violation && strings.Contains(f.Detail, "consistency") {
			found = true
		}
	}
	if !found {
		t.Fatalf("abstract violation missing: %v", r.ByLayer(Abstract))
	}
}

func TestInfeasibleLinkFlagged(t *testing.T) {
	k := sim.New(1)
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 10000, 100))
	e := env.New(k, plan)
	med := radio.NewMedium(k, e)
	a := med.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := med.NewRadio("b", geo.Pt(9000, 0), 6, 15)
	sys := &System{Name: "far", Env: e, Medium: med}
	sys.AddDevice(&DeviceEntity{Name: "a", Pos: geo.Pt(0, 0), Radio: a, Spec: device.AromaAdapterSpec()})
	sys.AddDevice(&DeviceEntity{Name: "b", Pos: geo.Pt(9000, 0), Radio: b, Spec: device.AromaAdapterSpec()})
	sys.Links = []Link{{A: "a", B: "b"}}
	r := Analyze(sys, true)
	vio := r.Violations()
	if len(vio) == 0 || !strings.Contains(vio[0].Detail, "infeasible") {
		t.Fatalf("infeasible link not flagged: %v", r.Findings)
	}
}

func TestUnknownLinkAndDevice(t *testing.T) {
	k := sim.New(1)
	sys := &System{Name: "broken", Links: []Link{{A: "x", B: "y"}}}
	alice := user.New(k, "alice", user.CasualFaculties())
	sys.AddUser(&UserEntity{U: alice, Operates: []string{"ghost"}})
	r := Analyze(sys, true)
	if len(r.Findings) < 2 {
		t.Fatalf("expected findings for unknown entities: %v", r.Findings)
	}
}

func TestNoCommonLanguageViolation(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.Faculties{
		Languages: []string{"fr"}, TechSkill: 0.9,
		Training:             map[string]float64{},
		FrustrationTolerance: 0.9, PatienceLimit: 10 * sim.Second,
	})
	r := Analyze(sys, true)
	found := false
	for _, f := range r.ByLayer(Resource) {
		if strings.Contains(f.Detail, "no common language") {
			found = true
		}
	}
	if !found {
		t.Fatal("language mismatch not flagged")
	}
}

func TestTraceEventsFoldedIntoReport(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.ResearcherFaculties())
	log := trace.NewForKernel(k)
	log.Issue(trace.Physical, "wlan", "low bandwidth prevents rapid animation")
	sys.Log = log
	r := Analyze(sys, true)
	found := false
	for _, f := range r.ByLayer(Physical) {
		if strings.Contains(f.Detail, "rapid animation") {
			found = true
		}
	}
	if !found {
		t.Fatal("trace event not folded into report")
	}
}

func TestRenderFigure1ContainsAllLayers(t *testing.T) {
	out := RenderFigure1()
	for _, l := range trace.Layers() {
		if !strings.Contains(out, l.String()) {
			t.Fatalf("figure 1 missing layer %v:\n%s", l, out)
		}
	}
	for _, cell := range []string{"User Goals", "Design Purpose", "Mental Models", "Mem Sto Exe UI Net", "Physical User"} {
		if !strings.Contains(out, cell) {
			t.Fatalf("figure 1 missing %q", cell)
		}
	}
}

func TestRenderLayerFigures(t *testing.T) {
	for _, l := range trace.Layers() {
		out := RenderFigureForLayer(l)
		if !strings.Contains(out, "Figure") {
			t.Fatalf("layer %v figure malformed:\n%s", l, out)
		}
		if l != Environment && !strings.Contains(out, string(RelationFor(l))) {
			t.Fatalf("layer %v figure missing relation", l)
		}
	}
	if !strings.Contains(RenderFigureForLayer(Environment), "communicates with") {
		t.Fatal("environment figure missing relation text")
	}
}

func TestReportRender(t *testing.T) {
	k := sim.New(1)
	sys := projectorSystem(k, user.CasualFaculties())
	r := Analyze(sys, true)
	out := r.Render()
	for _, l := range trace.Layers() {
		if !strings.Contains(out, l.String()+" layer") {
			t.Fatalf("render missing %v section", l)
		}
	}
	if !strings.Contains(out, "Totals:") {
		t.Fatal("render missing totals")
	}
	ablation := Analyze(sys, false)
	if !strings.Contains(ablation.Render(), "OSI-style ablation") {
		t.Fatal("ablation render should label itself")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Layer: Physical, Severity: trace.Issue, Subject: "x", Detail: "d"}
	if f.String() == "" {
		t.Fatal("empty finding string")
	}
}

func TestModelInventoryShape(t *testing.T) {
	inv := ModelInventory()
	if len(inv) != 5 {
		t.Fatalf("inventory size = %d", len(inv))
	}
	if inv[0].Layer != Intentional || inv[4].Layer != Environment {
		t.Fatal("inventory not top-down")
	}
}
