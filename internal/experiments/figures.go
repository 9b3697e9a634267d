package experiments

import (
	"fmt"

	"aroma/internal/core"
	"aroma/internal/device"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/metrics"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
)

// SmartProjectorSystem builds the paper's analysis scenario as an LPC
// System: presenter + laptop + smart projector + lookup, in a lab. With
// beliefsMatch false the projector's exported state contradicts the
// presenter's mental model.
func SmartProjectorSystem(k *sim.Kernel, fac user.Faculties, beliefsMatch bool) *core.System {
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 30, 20))
	e := env.New(k, plan)
	med := radio.NewMedium(k, e)
	sys := &core.System{Name: "smart-projector", Env: e, Medium: med}

	laptopPos, projPos, lookupPos := geo.Pt(5, 10), geo.Pt(25, 10), geo.Pt(15, 18)
	sys.AddDevice(&core.DeviceEntity{
		Name: "laptop", Pos: laptopPos, Spec: device.LaptopSpec(),
		Radio:           med.NewRadio("laptop", laptopPos, 6, 15),
		AppState:        map[string]string{"vnc.running": "true"},
		OperatingRangeM: 0.8,
		Purpose: core.DesignPurpose{
			Description:  "presentation laptop",
			Capabilities: map[string]float64{"present-slides": 0.9},
			AssumedSkill: 0.3,
		},
	})
	projState := map[string]string{"projecting": "true", "projection.owner": "alice"}
	if !beliefsMatch {
		projState["projecting"] = "false"
		projState["projection.owner"] = "none"
	}
	sys.AddDevice(&core.DeviceEntity{
		Name: "projector", Pos: projPos, Spec: device.AromaAdapterSpec(),
		Radio:    med.NewRadio("projector", projPos, 6, 15),
		AppState: projState,
		Purpose: core.DesignPurpose{
			Description:  "research vehicle to measure service discovery",
			Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2},
			AssumedSkill: 0.9,
		},
	})
	sys.AddDevice(&core.DeviceEntity{
		Name: "lookup", Pos: lookupPos, Spec: device.AromaAdapterSpec(),
		Radio: med.NewRadio("lookup", lookupPos, 6, 15),
		Purpose: core.DesignPurpose{
			Description:  "Jini lookup service",
			Capabilities: map[string]float64{"service-discovery": 0.9},
			AssumedSkill: 0.9,
		},
	})
	sys.Links = []core.Link{{A: "laptop", B: "projector"}, {A: "laptop", B: "lookup"}, {A: "projector", B: "lookup"}}

	alice := user.New(k, "alice", fac)
	alice.Pos = geo.Pt(5, 10.5)
	alice.Goals = []user.Goal{
		{Name: "make the presentation", Needs: []string{"remote-projection"}, Importance: 3},
		{Name: "walk in and present with zero setup", Needs: []string{"zero-config"}, Importance: 2},
	}
	alice.Mental.Believe("projecting", "true")
	alice.Mental.Believe("projection.owner", "alice")
	sys.AddUser(&core.UserEntity{U: alice, Operates: []string{"laptop", "projector"}})
	return sys
}

// F1 regenerates Figure 1 (the model diagram) from the code's own
// inventory and quantifies the user-column ablation: how many Smart
// Projector findings disappear when the user is "abstracted away".
func F1(seed int64) *Result {
	r := &Result{ID: "F1", Title: "LPC model structure and user-column ablation"}
	r.AddNote("%s", core.RenderFigure1())

	inv := metrics.NewTable("Model inventory (drives Figure 1)", "layer", "user side", "device side", "relation")
	for _, li := range core.ModelInventory() {
		inv.AddRow(li.Layer.String(), li.UserSide, li.DeviceSide, string(li.Relation))
	}
	r.Tables = append(r.Tables, inv)

	k := sim.New(seed)
	sys := SmartProjectorSystem(k, user.CasualFaculties(), true)
	full := core.Analyze(sys, true)
	ablated := core.Analyze(sys, false)

	tbl := metrics.NewTable("Findings with vs without the user column",
		"layer", "full model", "device-only (OSI-style)")
	for _, l := range trace.Layers() {
		tbl.AddRow(l.String(), len(full.ByLayer(l)), len(ablated.ByLayer(l)))
	}
	tbl.AddRow("TOTAL", len(full.Findings), len(ablated.Findings))
	tbl.AddNote("violations: full=%d, device-only=%d", len(full.Violations()), len(ablated.Violations()))
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = len(full.Findings) > len(ablated.Findings) &&
		len(full.Violations()) > len(ablated.Violations()) &&
		len(ablated.ByLayer(core.Intentional)) == 0
	r.ShapeWhy = "the paper's key claim: issues at the upper layers are invisible when the user is abstracted away"
	return r
}

// F2 reproduces Figure 2's relation ("must be compatible with" through
// the environment) as a measured range/wall sweep.
func F2(seed int64) *Result {
	r := &Result{ID: "F2", Title: "Environment/physical compatibility: range and walls"}
	r.AddNote("%s", core.RenderFigureForLayer(core.Environment))
	r.AddNote("%s", core.RenderFigureForLayer(core.Physical))

	tbl := metrics.NewTable("Link rate (Mb/s) vs distance and intervening walls",
		"distance (m)", "0 walls", "1 wall", "2 walls")
	var rateSeries [3]*metrics.Series
	for w := range rateSeries {
		rateSeries[w] = &metrics.Series{Name: fmt.Sprintf("rate, %d walls", w), XLabel: "m", YLabel: "Mb/s"}
	}
	for _, dist := range []float64{2, 5, 10, 20, 40, 60, 80, 100, 130, 160, 200, 260} {
		row := []any{dist}
		for walls := 0; walls <= 2; walls++ {
			k := sim.New(seed)
			plan := geo.NewFloorPlan(geo.RectAt(0, 0, 300, 50))
			for i := 0; i < walls; i++ {
				x := dist * float64(i+1) / float64(walls+1)
				plan.AddWall(geo.Seg(geo.Pt(x, 0), geo.Pt(x, 50)), 6, 20)
			}
			e := env.New(k, plan)
			med := radio.NewMedium(k, e)
			a := med.NewRadio("a", geo.Pt(0, 25), 6, 15)
			b := med.NewRadio("b", geo.Pt(dist, 25), 6, 15)
			snr := med.SNRAtDBm(a, b)
			rate := 0.0
			if snr >= radio.Rates[0].MinSINRdB {
				rate = radio.PickRate(snr).Mbps
			}
			row = append(row, rate)
			rateSeries[walls].Add(dist, rate)
		}
		tbl.AddRow(row...)
	}
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, rateSeries[0], rateSeries[2])

	// Shape: rate non-increasing with distance, and walls strictly reduce
	// usable range (the no-wall curve dominates the 2-wall curve).
	dominates := true
	for i := range rateSeries[0].Ys {
		if rateSeries[0].Ys[i] < rateSeries[2].Ys[i] {
			dominates = false
		}
	}
	r.ShapeOK = rateSeries[0].Monotone(-1, 1e-9) && rateSeries[2].Monotone(-1, 1e-9) && dominates
	r.ShapeWhy = "physical compatibility degrades monotonically with distance and wall count"
	return r
}

// F3 reproduces Figure 3: the resource layer's "must not be frustrated
// by" as a faculties × appliance violation matrix.
func F3(seed int64) *Result {
	r := &Result{ID: "F3", Title: "Resource layer: faculties vs device resources"}
	r.AddNote("%s", core.RenderFigureForLayer(core.Resource))

	type person struct {
		name string
		fac  user.Faculties
	}
	people := []person{
		{"researcher", user.ResearcherFaculties()},
		{"casual", user.CasualFaculties()},
		{"french-speaker", user.Faculties{Languages: []string{"fr"}, TechSkill: 0.7,
			Training: map[string]float64{}, FrustrationTolerance: 0.7, PatienceLimit: 5 * sim.Second}},
		{"impatient", user.Faculties{Languages: []string{"en"}, TechSkill: 0.6,
			Training: map[string]float64{}, FrustrationTolerance: 0.5, PatienceLimit: 60 * sim.Millisecond}},
	}
	specs := []device.Spec{device.LaptopSpec(), device.AromaAdapterSpec(), device.PDASpec()}

	tbl := metrics.NewTable("Resource-layer violations per user × appliance",
		"user", specs[0].Name, specs[1].Name, specs[2].Name)
	counts := make(map[string]map[string]int)
	for _, p := range people {
		counts[p.name] = make(map[string]int)
		row := []any{p.name}
		for _, spec := range specs {
			k := sim.New(seed)
			sys := &core.System{Name: "matrix"}
			sys.AddDevice(&core.DeviceEntity{
				Name: spec.Name, Spec: spec,
				Purpose: core.DesignPurpose{AssumedSkill: 0.5},
			})
			u := user.New(k, p.name, p.fac)
			sys.AddUser(&core.UserEntity{U: u, Operates: []string{spec.Name}})
			rep := core.Analyze(sys, true)
			n := 0
			for _, f := range rep.ByLayer(core.Resource) {
				if f.Severity >= trace.Violation {
					n++
				}
			}
			counts[p.name][spec.Name] = n
			row = append(row, n)
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("the PDA is single-threaded with no abort — the paper's 'needless frustration' design")
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = counts["researcher"]["laptop"] == 0 &&
		counts["french-speaker"]["laptop"] > 0 &&
		counts["impatient"]["pda"] > 0
	r.ShapeWhy = "mismatched faculties (language, patience) trip violations that the intended user avoids"
	return r
}

// F4 reproduces Figure 4: abstract-layer consistency between the user's
// mental model and application state, before and after an unnoticed
// session reclamation.
func F4(seed int64) *Result {
	r := &Result{ID: "F4", Title: "Abstract layer: mental model consistency"}
	r.AddNote("%s", core.RenderFigureForLayer(core.Abstract))

	k := sim.New(seed)
	consistent := SmartProjectorSystem(k, user.ResearcherFaculties(), true)
	diverged := SmartProjectorSystem(k, user.ResearcherFaculties(), false)

	repC := core.Analyze(consistent, true)
	repD := core.Analyze(diverged, true)

	scoreOf := func(sys *core.System) float64 {
		return sys.Users[0].U.Mental.ConsistencyWith(sys.Device("projector").AppState)
	}
	tbl := metrics.NewTable("Mental-model consistency vs projector state",
		"scenario", "consistency", "abstract violations")
	vioC, vioD := 0, 0
	for _, f := range repC.ByLayer(core.Abstract) {
		if f.Severity >= trace.Violation {
			vioC++
		}
	}
	for _, f := range repD.ByLayer(core.Abstract) {
		if f.Severity >= trace.Violation {
			vioD++
		}
	}
	tbl.AddRow("user's beliefs match reality", scoreOf(consistent), vioC)
	tbl.AddRow("session reclaimed unnoticed", scoreOf(diverged), vioD)
	tbl.AddNote("the diverged row is the paper's scenario: using the system becomes 'a mental exercise similar to debugging'")
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = scoreOf(consistent) == 1 && scoreOf(diverged) < 0.75 && vioC == 0 && vioD > 0
	r.ShapeWhy = "divergent state must be flagged as an abstract-layer violation; consistent state must not"
	return r
}

// F5 reproduces Figure 5: intentional-layer harmony between user goals
// and design purpose, for the paper's two audiences.
func F5(seed int64) *Result {
	r := &Result{ID: "F5", Title: "Intentional layer: goal/design harmony"}
	r.AddNote("%s", core.RenderFigureForLayer(core.Intentional))

	researchPurpose := core.DesignPurpose{
		Description:  "research vehicle to measure service discovery",
		Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2, "measurement": 0.95},
		AssumedSkill: 0.9,
	}
	commercialPurpose := core.DesignPurpose{
		Description:  "commercial-grade plug-and-present projector",
		Capabilities: map[string]float64{"remote-projection": 0.9, "remote-control": 0.9, "zero-config": 0.9},
		AssumedSkill: 0.2,
	}
	researcherGoals := []user.Goal{
		{Name: "demonstrate discovery", Needs: []string{"measurement"}, Importance: 3},
		{Name: "project slides", Needs: []string{"remote-projection"}, Importance: 1},
	}
	casualGoals := []user.Goal{
		{Name: "present now", Needs: []string{"remote-projection"}, Importance: 3},
		{Name: "no configuration", Needs: []string{"zero-config"}, Importance: 2},
	}
	tbl := metrics.NewTable("Harmony score: design purpose vs user goals",
		"user goals \\ design", "research prototype", "commercial product")
	rr := researchPurpose.HarmonyWith(researcherGoals)
	rc := commercialPurpose.HarmonyWith(researcherGoals)
	cr := researchPurpose.HarmonyWith(casualGoals)
	cc := commercialPurpose.HarmonyWith(casualGoals)
	tbl.AddRow("researcher", rr, rc)
	tbl.AddRow("casual presenter", cr, cc)
	tbl.AddNote("the paper: the prototype 'satisfies the needs of its intended users' but 'will not necessarily be in harmony with the needs of a casual user'")
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = rr > 0.7 && cr < 0.6 && cc > 0.7
	r.ShapeWhy = "research design harmonizes with researchers but not casual users; the commercial design fixes it"
	return r
}
