package sweep

import (
	"strings"
	"sync"
	"testing"

	"aroma/internal/sim"
	"aroma/pkg/aroma/scenario"
)

// The fault pseudo-axis crosses the parameter grid as the innermost
// dimension, labels its arms, and carries each arm verbatim — the
// clean arm stays the literal "none", an explicit disarm.
func TestFaultAxisCrossesGrid(t *testing.T) {
	d := Design{
		Scenario: "fake",
		Axes:     []Axis{Ints("n", 1, 2)},
		Faults:   []string{"none", "jam:at=5s,for=5s"},
	}
	cells := d.Cells()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 params × 2 arms)", len(cells))
	}
	wantLabels := []string{
		"n=1 faults=none", "n=1 faults=jam:at=5s,for=5s",
		"n=2 faults=none", "n=2 faults=jam:at=5s,for=5s",
	}
	wantFaults := []string{"none", "jam:at=5s,for=5s", "none", "jam:at=5s,for=5s"}
	for i, c := range cells {
		if c.Index != i || c.Label != wantLabels[i] || c.Faults != wantFaults[i] {
			t.Errorf("cell %d = {Index:%d Label:%q Faults:%q}, want {%d %q %q}",
				i, c.Index, c.Label, c.Faults, i, wantLabels[i], wantFaults[i])
		}
	}
	// Without axes, the fault arms are the whole grid.
	solo := Design{Scenario: "fake", Faults: []string{"none", "crash:at=1s,for=1s"}}
	cells = solo.Cells()
	if len(cells) != 2 || cells[0].Label != "faults=none" || cells[1].Faults != "crash:at=1s,for=1s" {
		t.Fatalf("axis-free fault cells = %+v", cells)
	}
}

// probeSeen counts, per fault plan, the fake-probe worlds built with it.
var (
	probeMu   sync.Mutex
	probeSeen = make(map[string]int)
)

func init() {
	scenario.Register("fake-probe", "sweep test world", func(cfg scenario.Config) (*scenario.Built, error) {
		probeMu.Lock()
		probeSeen[cfg.Faults]++
		probeMu.Unlock()
		return fakeWorld(cfg), nil
	})
}

// Each arm reaches the run verbatim as scenario.Config.Faults and is
// echoed on its rows; the clean arm runs with the literal "none", so a
// scenario with a default storm sees an explicit disarm.
func TestFaultAxisReachesConfig(t *testing.T) {
	d := Design{
		Scenario: "fake-probe",
		Faults:   []string{"none", "outage:at=2s,for=3s"},
		Reps:     3,
	}
	rep := mustRun(t, d)
	probeMu.Lock()
	seen := probeSeen
	probeMu.Unlock()
	if got := seen["none"]; got != 3 {
		t.Errorf("clean arm ran %d times, want 3", got)
	}
	if got := seen["outage:at=2s,for=3s"]; got != 3 {
		t.Errorf("fault arm ran %d times, want 3", got)
	}
	for _, row := range rep.Rows {
		want := "none"
		if strings.Contains(row.Label, "outage") {
			want = "outage:at=2s,for=3s"
		}
		if row.Faults != want {
			t.Errorf("row %q carries Faults %q, want %q", row.Label, row.Faults, want)
		}
	}
}

// Bad arms fail at design time: unparsable plans, arms whose canonical
// forms collide, and fault sweeping of an already-built snapshot world.
func TestFaultArmValidation(t *testing.T) {
	cases := []struct {
		name string
		d    Design
		want string
	}{
		{"bad plan", Design{Scenario: "fake", Faults: []string{"crash:for=5s"}}, "fault arm"},
		{"colliding arms", Design{Scenario: "fake", Faults: []string{"none", ""}}, "repeats plan"},
		{"snapshot", Design{Snapshot: []byte("x"), Faults: []string{"jam:at=1s,for=1s"}}, "cannot sweep fault plans"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// A real faulted campaign: same seeds across both arms, clean and
// stormy digests reproducible run-to-run but different arm-to-arm.
func TestFaultAxisDigests(t *testing.T) {
	d := Design{
		Scenario: "faultstorm",
		Horizon:  25 * sim.Second,
		Faults:   []string{"none", "jam:at=5s,for=10s,loss=40"},
		Reps:     2,
	}
	a, b := mustRun(t, d), mustRun(t, d)
	da, db := digests(a), digests(b)
	if len(da) != 4 {
		t.Fatalf("got %d digests, want 4", len(da))
	}
	for k, v := range da {
		if db[k] != v {
			t.Errorf("digest for %q not reproducible: %s vs %s", k, v, db[k])
		}
	}
	for _, seed := range []string{"seed=1", "seed=2"} {
		clean, stormy := da["faults=none "+seed], da["faults=jam:at=5s,for=10s,loss=40 "+seed]
		if clean == "" || stormy == "" {
			t.Fatalf("missing digests for %s: %v", seed, da)
		}
		if clean == stormy {
			t.Errorf("%s: fault arm did not change the digest (%s)", seed, clean)
		}
	}
}
