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

func TestRegisterAndRun(t *testing.T) {
	var gotCfg Config
	Register("test-basic", "a test scenario", func(cfg Config) (*Result, error) {
		gotCfg = cfg
		cfg.Println("narrative line")
		return &Result{SimTime: 3 * sim.Second, Steps: 7}, nil
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
	Register("test-headless", "", func(cfg Config) (*Result, error) {
		// nil Out must have been replaced; printing must not crash.
		cfg.Printf("discarded %d\n", 1)
		return nil, nil
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
	Register("test-panics", "", func(cfg Config) (*Result, error) {
		panic("must-style assertion failed")
	})
	_, err := Run("test-panics", Config{})
	if err == nil || !strings.Contains(err.Error(), "must-style") {
		t.Errorf("panic not surfaced as error: %v", err)
	}
}

func TestRunWrapsError(t *testing.T) {
	sentinel := errors.New("boom")
	Register("test-errors", "", func(cfg Config) (*Result, error) {
		return nil, sentinel
	})
	_, err := Run("test-errors", Config{})
	if !errors.Is(err, sentinel) {
		t.Errorf("error not wrapped: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("test-dup", "", func(cfg Config) (*Result, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	Register("test-dup", "", func(cfg Config) (*Result, error) { return nil, nil })
}

func TestNamesSorted(t *testing.T) {
	Register("test-zz", "", func(cfg Config) (*Result, error) { return nil, nil })
	Register("test-aa", "", func(cfg Config) (*Result, error) { return nil, nil })
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
	c := Config{Params: map[string]string{
		"radios": "200", "speed": "1.5", "probe": "true", "label": "dense",
	}}
	if v, ok := c.Param("radios"); !ok || v != "200" {
		t.Errorf("Param(radios) = %q, %v", v, ok)
	}
	if _, ok := c.Param("missing"); ok {
		t.Error("Param(missing) reported set")
	}
	if c.ParamIntOr("radios", 1) != 200 || c.ParamIntOr("missing", 7) != 7 {
		t.Error("ParamIntOr wrong")
	}
	if c.ParamFloatOr("speed", 0) != 1.5 || c.ParamFloatOr("missing", 2.5) != 2.5 {
		t.Error("ParamFloatOr wrong")
	}
	if !c.ParamBoolOr("probe", false) || c.ParamBoolOr("missing", true) != true {
		t.Error("ParamBoolOr wrong")
	}
	if c.ParamOr("label", "x") != "dense" || c.ParamOr("missing", "x") != "x" {
		t.Error("ParamOr wrong")
	}
	// Zero config: every accessor defers to the default.
	var zero Config
	if zero.ParamIntOr("radios", 3) != 3 {
		t.Error("nil Params must defer to defaults")
	}
}

func TestMalformedParamSurfacesAsRunError(t *testing.T) {
	Register("test-badparam", "", func(cfg Config) (*Result, error) {
		cfg.ParamIntOr("radios", 10)
		return nil, nil
	})
	_, err := Run("test-badparam", Config{Params: map[string]string{"radios": "many"}})
	if err == nil || !strings.Contains(err.Error(), "not an int") {
		t.Errorf("malformed param not surfaced: %v", err)
	}
}

func TestNonFiniteFloatParamFailsBuild(t *testing.T) {
	RegisterWorld("test-floatparam", "", func(cfg Config) (*Built, error) {
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
	chatty := func(tag string) Func {
		return func(cfg Config) (*Result, error) {
			for i := 0; i < 500; i++ {
				cfg.Printf("%s line %d\n", tag, i)
			}
			return nil, nil
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
