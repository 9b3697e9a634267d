// Quickstart: model a pervasive computing system in the LPC framework
// and analyze it, in a dozen declarative lines — the paper's motivating
// kind of appliance, a smart kettle with a small display, English-only
// firmware, and a research-grade setup procedure, seen by the engineer
// who built it and the houseguest who just wants tea.

package scenarios

import (
	"aroma/internal/core"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("quickstart",
		"smart kettle, two audiences: the 10-line LPC analysis demo",
		buildQuickstart)
}

func buildQuickstart(cfg scenario.Config) (*scenario.Built, error) {
	w := aroma.NewWorld(
		aroma.WithName("smart-kettle"),
		aroma.WithSeed(cfg.SeedOr(1)),
	)

	// The device column: resources (Figure 3's Mem Sto Exe UI Net),
	// application state, and design purpose.
	w.AddDevice("smart-kettle", aroma.Pt(2, 2),
		aroma.Offline(), // an appliance under analysis, never networked
		aroma.WithSpec(aroma.Spec{
			Name: "smart-kettle", MemBytes: 1 << 20, StoBytes: 1 << 20,
			ExeMIPS: 8, Exec: aroma.SingleThreaded, AllowAbort: false,
			UI: aroma.UISpec{
				DisplayW: 96, DisplayH: 32,
				InputMethods: []string{"buttons"},
				Languages:    []string{"en"},
				BaseLatency:  300 * aroma.Millisecond,
			},
		}),
		aroma.WithAppState(map[string]string{"boiling": "false", "schedule.set": "true"}),
		aroma.WithPurpose(aroma.Purpose{
			Description:  "demonstrate schedulable boiling for the lab",
			Capabilities: map[string]float64{"boil-water": 0.9, "schedule": 0.8, "walk-up-use": 0.3},
			AssumedSkill: 0.8,
		}),
	)

	// The user column: faculties, beliefs, goals. The guest assumes the
	// kettle is idle; the host left a schedule on.
	w.AddUser("houseguest", aroma.Pt(2, 3),
		aroma.WithFaculties(aroma.Casual()),
		aroma.WithGoal("cup of tea, now", 1, "boil-water", "walk-up-use"),
		aroma.Believing("schedule.set", "false"),
		aroma.Operating("smart-kettle"),
	)
	w.AddUser("engineer", aroma.Pt(2, 3),
		aroma.WithFaculties(aroma.Researcher()),
		aroma.WithGoal("verify the scheduler", 1, "schedule"),
		aroma.Believing("schedule.set", "true"),
		aroma.Operating("smart-kettle"),
	)

	finish := func(res *scenario.Result) {
		report := w.Analyze()
		cfg.Println(core.RenderFigure1())
		cfg.Println(report.Render())

		// The same analysis without the user column — the OSI-style view the
		// paper argues is blind to what actually dooms appliances.
		ablated := core.Analyze(w.System(), false)
		cfg.Printf("Without the user column the analyzer sees %d findings instead of %d;\n",
			len(ablated.Findings), len(report.Findings))
		cfg.Printf("every violation it misses involves the human: %d vs %d.\n",
			len(ablated.Violations()), len(report.Violations()))
		res.Report = report
	}
	return &scenario.Built{World: w, Finish: finish}, nil
}
