package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrink every workload to a fraction of a second per round.
var tinySizes = sizes{
	denseWorlds:  2,
	denseParams:  map[string]string{"radios": "40"},
	appScenarios: []string{"smartprojector", "faultstorm", "smartspace"},
	sessions:     4,
	residents:    2,
}

// tinyPins are the tiny sizes' digest-of-digests at seed 1. A change
// that means to alter the model's behaviour updates them with pins.json.
var tinyPins = map[string]string{
	"phy-dense": "7175640ded3551f6",
	"app-stack": "32b5134fa6c5558f",
	"service":   "2cb3b41b10f680c9",
}

func loadDef(t *testing.T) *benchmarkDef {
	t.Helper()
	def, err := loadBenchmark("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// checkNames fails unless got has exactly the declared metrics, with
// their declared units.
func checkNames(t *testing.T, what string, got map[string]metric, want []metricDef) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, declared %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, declared %d", what, len(got), len(want))
	}
}

// TestWorkloadsTiny runs every workload at tiny sizes, untraced and
// traced, and checks the results against BENCHMARK.json and the pins.
func TestWorkloadsTiny(t *testing.T) {
	def := loadDef(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rc := newRunCfg(defaultSeed, tinySizes)
			o, err := execute(wl, rc, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d, notes %v", o.Correct, o.Attempted, o.Failed, o.notes)
			}
			if o.dod != tinyPins[wl.name] {
				t.Errorf("digest-of-digests %s, pinned %q", o.dod, tinyPins[wl.name])
			}
			checkNames(t, "untraced", o.Metrics, def.EndToEnd)
			for _, m := range def.EndToEnd {
				if v := o.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}

			// One client does the same simulated work.
			one := rc
			one.clients = 1
			o1, err := execute(wl, one, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if o1.dod != o.dod || !o1.Correct {
				t.Errorf("one client: digest-of-digests %s, correct %v; want %s", o1.dod, o1.Correct, o.dod)
			}

			ot, err := execute(wl, rc, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !ot.Correct || ot.dod != o.dod {
				t.Errorf("traced: correct %v, digest-of-digests %s", ot.Correct, ot.dod)
			}
			checkNames(t, "traced", ot.Metrics, def.PerLayer)
			var cpu float64
			for _, m := range cpuModules {
				cpu += ot.Metrics["cpu."+m].Value
			}
			if cpu > 1+1e-9 {
				t.Errorf("cpu shares sum to %v", cpu)
			}
		})
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the rules the
// benchmark is run under.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("%s is %d bytes", benchmarkFile, len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(raw)
	if strings.Join(keys, ",") != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("keys %v", keys)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []map[string]string
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d", def.RunSeconds)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "bench" || len(def.Command) == 0 {
		t.Errorf("paths %v, command %v", def.Paths, def.Command)
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if len(w) != 2 || len(w["why"]) == 0 || len(w["why"]) > 200 || strings.Contains(w["why"], "\n") {
			t.Errorf("workload %v", w)
		}
		if i < len(workloads) && w["name"] != workloads[i].name {
			t.Errorf("workload %d is %q, implemented %q", i, w["name"], workloads[i].name)
		}
		name(w["name"])
	}
	check := func(ms []map[string]any, keys int) {
		for _, m := range ms {
			n, _ := m["name"].(string)
			u, _ := m["unit"].(string)
			b, _ := m["better"].(string)
			name(n)
			if len(m) != keys || !unitRE.MatchString(u) || (b != "lower" && b != "higher") {
				t.Errorf("metric %v", m)
			}
		}
	}
	check(def.EndToEnd, 4)
	check(def.PerLayer, 3)
	if len(def.EndToEnd) < 1 || len(def.EndToEnd) > 16 || len(def.PerLayer) < 1 || len(def.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(def.EndToEnd), len(def.PerLayer))
	}
	var setupBound, maxBound float64
	for _, m := range def.EndToEnd {
		b, _ := m["bound"].(float64)
		if b <= 0 || b > 0.25 {
			t.Errorf("%v: bound %v", m["name"], b)
		}
		maxBound = max(maxBound, b)
		if m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower" {
			setupBound = b
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound")
	}
}

func TestAgree(t *testing.T) {
	def := loadDef(t)
	set := func(eps float64) *calSet {
		s := &calSet{Runs: map[string][]calRun{}}
		for _, w := range def.Workloads {
			for i := 0; i < 10; i++ {
				r := calRun{Seed: int64(i + 1), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, m := range def.EndToEnd {
					r.Metrics[m.Name] = metric{Value: 1 + float64(i%3)/1000, Unit: m.Unit}
				}
				r.Metrics["events_per_s"] = metric{Value: eps * (1 + float64(i%3)/1000), Unit: "events/s"}
				s.Runs[w.Name] = append(s.Runs[w.Name], r)
			}
		}
		return s
	}
	var out bytes.Buffer
	if status := compareSets(&out, def, set(1e6), set(1.01e6)); status != 0 {
		t.Errorf("equal sets: status %d\n%s", status, out.String())
	}
	out.Reset()
	if status := compareSets(&out, def, set(1e6), set(0.5e6)); status != 1 || !strings.Contains(out.String(), exceedsV) {
		t.Errorf("halved events_per_s: status %d\n%s", status, out.String())
	}
}

func TestRouteOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/worlds", "create"},
		{"GET", "/v1/worlds/w1", "info"},
		{"DELETE", "/v1/worlds/w1", "delete"},
		{"DELETE", "/v1/snapshots/s1", "delete"},
		{"POST", "/v1/worlds/w1/run", "run"},
		{"GET", "/v1/worlds/w1/result", "result"},
		{"POST", "/v1/worlds/w1/snapshot", "snapshot"},
		{"POST", "/v1/snapshots/s1/fork", "fork"},
		{"GET", "/metrics", "scrape"},
	} {
		if got := routeOf(c.method, c.path); got != c.want {
			t.Errorf("routeOf(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "phy-dense", "-trace", "2"},
		{"-workload", "phy-dense", "-seed", "-1"},
		{"-agree", "one.json"},
		{"-calibrate", "2"},
	} {
		var out, errOut bytes.Buffer
		if status := run(args, &out, &errOut); status != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, status, out.String())
		}
	}
}
