package experiments

import (
	"fmt"

	"aroma/internal/core"
	"aroma/internal/device"
	"aroma/internal/geo"
	"aroma/internal/metrics"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
	"aroma/pkg/aroma"
)

// SmartProjectorSystem builds the paper's analysis scenario as a world:
// presenter + laptop + smart projector + lookup, in a lab. With
// beliefsMatch false the projector's exported state contradicts the
// presenter's mental model. Analyze its System().
func SmartProjectorSystem(seed int64, fac user.Faculties, beliefsMatch bool) *aroma.World {
	w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithName("smart-projector"))
	w.AddDevice("laptop", geo.Pt(5, 10),
		aroma.WithSpec(device.LaptopSpec()),
		aroma.WithAppState(map[string]string{"vnc.running": "true"}),
		aroma.WithPurpose(core.DesignPurpose{
			Description:  "presentation laptop",
			Capabilities: map[string]float64{"present-slides": 0.9},
			AssumedSkill: 0.3,
		})).Entity().OperatingRangeM = 0.8
	projState := map[string]string{"projecting": "true", "projection.owner": "alice"}
	if !beliefsMatch {
		projState["projecting"] = "false"
		projState["projection.owner"] = "none"
	}
	w.AddDevice("projector", geo.Pt(25, 10),
		aroma.WithSpec(device.AromaAdapterSpec()),
		aroma.WithAppState(projState),
		aroma.WithPurpose(core.DesignPurpose{
			Description:  "research vehicle to measure service discovery",
			Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2},
			AssumedSkill: 0.9,
		}))
	w.AddDevice("lookup", geo.Pt(15, 18),
		aroma.WithSpec(device.AromaAdapterSpec()),
		aroma.WithPurpose(core.DesignPurpose{
			Description:  "Jini lookup service",
			Capabilities: map[string]float64{"service-discovery": 0.9},
			AssumedSkill: 0.9,
		}))
	w.Link("laptop", "projector")
	w.Link("laptop", "lookup")
	w.Link("projector", "lookup")

	w.AddUser("alice", geo.Pt(5, 10.5),
		aroma.WithFaculties(fac),
		aroma.WithGoal("make the presentation", 3, "remote-projection"),
		aroma.WithGoal("walk in and present with zero setup", 2, "zero-config"),
		aroma.Believing("projecting", "true"),
		aroma.Believing("projection.owner", "alice"),
		aroma.Operating("laptop", "projector"))
	return w
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

	sys := SmartProjectorSystem(seed, user.CasualFaculties(), true).System()
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
			w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithFloorPlan(walledPlan(300, dist, walls)))
			a := w.AddDevice("a", geo.Pt(0, 25)).Radio()
			b := w.AddDevice("b", geo.Pt(dist, 25)).Radio()
			snr := w.Medium().SNRAtDBm(a, b)
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

// walledPlan is a width×50 m floor crossed by walls evenly spaced
// between x=0 and x=dist, each with 6 dB radio and 20 dB acoustic loss,
// for the link-rate and ranging sweeps (F2, C8).
func walledPlan(width, dist float64, walls int) *geo.FloorPlan {
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, width, 50))
	for i := 0; i < walls; i++ {
		x := dist * float64(i+1) / float64(walls+1)
		plan.AddWall(geo.Seg(geo.Pt(x, 0), geo.Pt(x, 50)), 6, 20)
	}
	return plan
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
			w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithName("matrix"))
			w.AddDevice(spec.Name, geo.Point{}, aroma.Offline(), aroma.WithSpec(spec),
				aroma.WithPurpose(core.DesignPurpose{AssumedSkill: 0.5}))
			w.AddUser(p.name, geo.Point{}, aroma.WithFaculties(p.fac), aroma.Operating(spec.Name))
			rep := w.Analyze()
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

	consistent := SmartProjectorSystem(seed, user.ResearcherFaculties(), true).System()
	diverged := SmartProjectorSystem(seed, user.ResearcherFaculties(), false).System()

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
