package scenario

import (
	"errors"
	"strings"
	"testing"

	"aroma/internal/sim"
	"aroma/pkg/aroma"
)

// Registry state is package-global; tests use distinct names to stay
// independent of each other and of any registered stock scenarios.

// empty returns a builder for an empty world run to horizon.
func empty(horizon sim.Time) BuildFunc {
	return func(cfg Config) (*Built, error) {
		return &Built{World: aroma.NewWorld(), Horizon: horizon}, nil
	}
}

func TestRegisterAndRun(t *testing.T) {
	var gotCfg Config
	Register("test-basic", "a test scenario", func(cfg Config) (*Built, error) {
		gotCfg = cfg
		w := aroma.NewWorld()
		for i := 0; i < 7; i++ {
			w.Schedule(sim.Time(i)*sim.Millisecond, "tick", func() {})
		}
		return &Built{World: w, Horizon: 3 * sim.Second, Finish: func(*Result) {
			cfg.Println("narrative line")
		}}, nil
	})

	var out strings.Builder
	res, err := Run("test-basic", Config{Seed: 9, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "test-basic" {
		t.Errorf("result name = %q (Run should fill it in)", res.Name)
	}
	if res.SimTime != 3*sim.Second || res.Steps != 7 {
		t.Errorf("result = %+v", res)
	}
	if gotCfg.Seed != 9 {
		t.Errorf("cfg.Seed = %d, want 9", gotCfg.Seed)
	}
	if out.String() != "narrative line\n" {
		t.Errorf("narrative = %q", out.String())
	}

	s, ok := Get("test-basic")
	if !ok || s.Description != "a test scenario" {
		t.Errorf("Get = %+v, %v", s, ok)
	}
}

func TestRunHeadless(t *testing.T) {
	Register("test-headless", "", func(cfg Config) (*Built, error) {
		if cfg.Out == nil {
			t.Error("nil Out was not replaced")
		}
		return &Built{World: aroma.NewWorld(), Finish: func(*Result) {
			cfg.Printf("discarded %d\n", 1)
		}}, nil
	})
	res, err := Run("test-headless", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Name != "test-headless" {
		t.Errorf("headless result = %+v", res)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("no-such-scenario", Config{}); err == nil {
		t.Error("unknown scenario should error")
	}
}

func TestRunRecoversPanic(t *testing.T) {
	Register("test-panics", "", func(cfg Config) (*Built, error) {
		panic("must-style assertion failed")
	})
	_, err := Run("test-panics", Config{})
	if err == nil || !strings.Contains(err.Error(), "must-style") {
		t.Errorf("panic not surfaced as error: %v", err)
	}
}

// A world that panics out of a kernel event during the run fails only
// its own Run, with the scenario's name; a concurrent Run of another
// scenario still succeeds.
func TestRunRecoversEventPanic(t *testing.T) {
	Register("test-event-panics", "", func(cfg Config) (*Built, error) {
		w := aroma.NewWorld()
		w.Schedule(sim.Second, "detonate", func() { panic("event detonated") })
		return &Built{World: w, Horizon: 2 * sim.Second}, nil
	})
	Register("test-event-calm", "", empty(2*sim.Second))

	calm := make(chan error, 1)
	go func() {
		_, err := Run("test-event-calm", Config{})
		calm <- err
	}()
	_, err := Run("test-event-panics", Config{})
	if err == nil || !strings.HasPrefix(err.Error(), "scenario test-event-panics: panic: ") ||
		!strings.Contains(err.Error(), "event detonated") {
		t.Errorf("event panic surfaced as %v", err)
	}
	if err := <-calm; err != nil {
		t.Errorf("concurrent run failed: %v", err)
	}
}

// Drive names the result with the name it is given, not the world's
// recipe, so a forked world can run under its campaign label.
func TestDriveNamesResult(t *testing.T) {
	b := &Built{World: aroma.NewWorld(aroma.WithSeed(4)), Horizon: sim.Second}
	res, err := Drive("campaign+fork", b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "campaign+fork" || res.Seed != 4 || res.SimTime != sim.Second {
		t.Errorf("result = %+v", res)
	}
}

func TestRunWrapsError(t *testing.T) {
	sentinel := errors.New("boom")
	Register("test-errors", "", func(cfg Config) (*Built, error) {
		return nil, sentinel
	})
	_, err := Run("test-errors", Config{})
	if !errors.Is(err, sentinel) {
		t.Errorf("error not wrapped: %v", err)
	}
}

// A build error already names the scenario; Run must not name it again.
func TestRunNamesScenarioOnceInBuildError(t *testing.T) {
	Register("test-badfaults", "", empty(sim.Second))
	_, err := Run("test-badfaults", Config{Faults: "bogus:at=1s"})
	if err == nil {
		t.Fatal("a bad fault plan should fail the run")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "scenario test-badfaults: fault: ") ||
		strings.Count(msg, "test-badfaults") != 1 {
		t.Errorf("error = %q, want it to name the scenario exactly once", msg)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("test-dup", "", empty(0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	Register("test-dup", "", empty(0))
}

func TestNamesSorted(t *testing.T) {
	Register("test-zz", "", empty(0))
	Register("test-aa", "", empty(0))
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.SeedOr(42) != 42 || c.HorizonOr(sim.Minute) != sim.Minute {
		t.Error("zero config must defer to scenario defaults")
	}
	c = Config{Seed: 7, Horizon: sim.Hour}
	if c.SeedOr(42) != 7 || c.HorizonOr(sim.Minute) != sim.Hour {
		t.Error("explicit config must win")
	}
}

func TestResultHelpersNilSafe(t *testing.T) {
	var r *Result
	if r.Findings() != 0 || r.Issues() != 0 || r.Violations() != 0 {
		t.Error("nil result helpers must return 0")
	}
	r = &Result{}
	if r.Findings() != 0 {
		t.Error("report-less result helpers must return 0")
	}
}

func TestParamAccessors(t *testing.T) {
	c := Config{Params: map[string]string{"radios": "200", "speed": "1.5"}}
	if c.ParamIntOr("radios", 1) != 200 || c.ParamIntOr("missing", 7) != 7 {
		t.Error("ParamIntOr wrong")
	}
	if c.ParamFloatOr("speed", 0) != 1.5 || c.ParamFloatOr("missing", 2.5) != 2.5 {
		t.Error("ParamFloatOr wrong")
	}
	// Zero config: every accessor defers to the default.
	var zero Config
	if zero.ParamIntOr("radios", 3) != 3 {
		t.Error("nil Params must defer to defaults")
	}
}

func TestMalformedParamSurfacesAsRunError(t *testing.T) {
	Register("test-badparam", "", func(cfg Config) (*Built, error) {
		cfg.ParamIntOr("radios", 10)
		return &Built{World: aroma.NewWorld()}, nil
	})
	_, err := Run("test-badparam", Config{Params: map[string]string{"radios": "many"}})
	if err == nil || !strings.Contains(err.Error(), "not an int") {
		t.Errorf("malformed param not surfaced: %v", err)
	}
}

func TestNonFiniteFloatParamFailsBuild(t *testing.T) {
	Register("test-floatparam", "", func(cfg Config) (*Built, error) {
		cfg.ParamFloatOr("side", 500)
		return &Built{World: aroma.NewWorld()}, nil
	})
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400", "wide"} {
		_, err := Build("test-floatparam", Config{Params: map[string]string{"side": v}})
		if err == nil || !strings.Contains(err.Error(), "not a finite float") {
			t.Errorf("side=%s: build error = %v, want a not-a-finite-float error", v, err)
		}
	}
	if _, err := Build("test-floatparam", Config{Params: map[string]string{"side": "-1.5e3"}}); err != nil {
		t.Errorf("finite side rejected: %v", err)
	}
}

func TestResultMetric(t *testing.T) {
	var r Result
	r.Metric("delivered", 42)
	r.Metric("delivered", 43) // last write wins
	r.Metric("lost", 1)
	if r.Metrics["delivered"] != 43 || r.Metrics["lost"] != 1 {
		t.Errorf("Metrics = %v", r.Metrics)
	}
}

// TestConcurrentRunsDoNotInterleave is the capture-safety regression
// test: two scenario runs driven from two goroutines, each with its own
// writer, must each produce exactly the byte stream a solo run
// produces — no interleaving, no cross-contamination, nothing written
// to any shared stream.
func TestConcurrentRunsDoNotInterleave(t *testing.T) {
	chatty := func(tag string) BuildFunc {
		return func(cfg Config) (*Built, error) {
			w := aroma.NewWorld()
			for i := 0; i < 500; i++ {
				w.Schedule(sim.Time(i)*sim.Millisecond, "say", func() {
					cfg.Printf("%s line %d\n", tag, i)
				})
			}
			return &Built{World: w, Horizon: sim.Second}, nil
		}
	}
	Register("test-chatty-a", "", chatty("alpha"))
	Register("test-chatty-b", "", chatty("beta"))

	solo := func(name string) string {
		var b strings.Builder
		if _, err := Run(name, Config{Out: &b}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	wantA, wantB := solo("test-chatty-a"), solo("test-chatty-b")

	for round := 0; round < 20; round++ {
		var bufA, bufB strings.Builder
		done := make(chan error, 2)
		go func() {
			_, err := Run("test-chatty-a", Config{Out: &bufA})
			done <- err
		}()
		go func() {
			_, err := Run("test-chatty-b", Config{Out: &bufB})
			done <- err
		}()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if bufA.String() != wantA {
			t.Fatalf("round %d: scenario A output diverged from its solo run", round)
		}
		if bufB.String() != wantB {
			t.Fatalf("round %d: scenario B output diverged from its solo run", round)
		}
	}
}
