package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// calSet is a calibration set: every run's result, by workload, with the
// machine it ran on and a per-metric summary.
type calSet struct {
	Host    string                         `json:"host"`
	Commit  string                         `json:"commit"`
	Seconds float64                        `json:"seconds"`
	Runs    map[string][]calRun            `json:"runs"`
	Summary map[string]map[string]calStats `json:"summary"`
}

type calRun struct {
	Seed int64 `json:"seed"`
	// WallS is the run's whole wall time, build excluded: set-ups,
	// rounds, checks and process start and exit.
	WallS float64 `json:"wall_s"`
	result
}

// calStats summarizes one metric's runs. Spread is the interquartile
// range over the median; RangeSpread is (max-min)/median.
type calStats struct {
	N           int     `json:"n"`
	Median      float64 `json:"median"`
	Q1          float64 `json:"q1"`
	Q3          float64 `json:"q3"`
	Spread      float64 `json:"spread"`
	RangeSpread float64 `json:"range_spread"`
}

func summarize(xs []float64) calStats {
	q1, q3 := quartiles(xs)
	s := sortedCopy(xs)
	st := calStats{N: len(xs), Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs)}
	if st.Median != 0 {
		st.RangeSpread = (s[len(s)-1] - s[0]) / st.Median
	}
	return st
}

// values collects one metric's values across a workload's runs.
func values(runs []calRun, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// calibrateSets runs each named workload n times, each run in a fresh
// process of this binary with its own seed, and writes the set to out.
func calibrateSets(stderr io.Writer, names []string, n int, first int64, seconds float64, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "aromabench: %v\n", err)
		return 1
	}
	set := calSet{Host: hostLine(), Commit: gitCommit(), Seconds: seconds,
		Runs: map[string][]calRun{}, Summary: map[string]map[string]calStats{}}
	status := 0
	for _, name := range names {
		for i := 0; i < n; i++ {
			seed := first + int64(i)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			var stdout, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &errOut
			t0 := time.Now()
			runErr := cmd.Run()
			wall := time.Since(t0).Seconds()
			res, perr := lastResult(stdout.Bytes())
			if runErr != nil || perr != nil {
				fmt.Fprintf(stderr, "%s seed %d failed: %v %v\n%s", name, seed, runErr, perr, errOut.String())
				status = 1
				if perr != nil {
					continue
				}
			}
			set.Runs[name] = append(set.Runs[name], calRun{Seed: seed, WallS: wall, result: res})
			fmt.Fprintf(stderr, "%s seed %d: correct %v, events_per_s %.4g, %.1f s\n", name, seed, res.Correct, res.Metrics["events_per_s"].Value, wall)
		}
		set.Summary[name] = map[string]calStats{}
		if runs := set.Runs[name]; len(runs) > 0 {
			for metricName := range runs[0].Metrics {
				set.Summary[name][metricName] = summarize(values(runs, metricName))
			}
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "aromabench: %v\n", err)
		return 1
	}
	for _, name := range names {
		fmt.Fprintf(stderr, "%s\n", name)
		for _, metricName := range sortedKeys(set.Summary[name]) {
			st := set.Summary[name][metricName]
			fmt.Fprintf(stderr, "  %-24s median %12.6g  spread %6.2f%%  range %6.2f%%  n %d\n",
				metricName, st.Median, 100*st.Spread, 100*st.RangeSpread, st.N)
		}
	}
	return status
}

// lastResult parses the result line a run prints last.
func lastResult(stdout []byte) (result, error) {
	var res result
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadSet(path string) (*calSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s calSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// agreeSets compares set b with the parent set a, workload by workload
// and metric by metric, against the bounds in the benchmark file. It
// prints one verdict per pair and returns 1 when any metric exceeds its
// bound or b has more failed operations than a.
func agreeSets(stdout, stderr io.Writer, benchmark, aPath, bPath string) int {
	def, err := loadBenchmark(benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "aromabench: %v\n", err)
		return 2
	}
	a, err := loadSet(aPath)
	if err == nil {
		var b *calSet
		if b, err = loadSet(bPath); err == nil {
			return compareSets(stdout, def, a, b)
		}
	}
	fmt.Fprintf(stderr, "aromabench: %v\n", err)
	return 2
}

func compareSets(w io.Writer, def *benchmarkDef, a, b *calSet) int {
	status := 0
	fmt.Fprintf(w, "%-10s %-22s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median_a", "median_b", "change", "spread_a", "spread_b", "bound", "verdict")
	for _, wl := range def.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		for _, m := range def.EndToEnd {
			as, bs := values(ra, m.Name), values(rb, m.Name)
			v := verdict(m, as, bs)
			if v == exceedsV {
				status = 1
			}
			fmt.Fprintf(w, "%-10s %-22s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(as), median(bs), 100*worsening(m.Better, median(as), median(bs)),
				100*spread(as), 100*spread(bs), 100*m.Bound, v)
		}
		fa, fb := failedOps(ra), failedOps(rb)
		v := agreeV
		if fb > fa {
			v, status = exceedsV, 1
		}
		fmt.Fprintf(w, "%-10s %-22s %12d %12d %8s %8s %8s %6s  %s\n", wl.Name, "failed", fa, fb, "", "", "", "0", v)
	}
	return status
}

func failedOps(runs []calRun) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
		if !r.Correct && r.Failed == 0 {
			n++
		}
	}
	return n
}
