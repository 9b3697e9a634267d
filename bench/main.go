// Command aromabench is the repository's benchmark. It runs one workload
// through the public API — scenario builds, checkpoints, and the aromad
// daemon behind a loopback HTTP server — checks every run's
// digest, and prints the workload's metrics, by name with their units,
// as the last line of its output. See README.md for the workloads,
// the metrics and how to read them.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload service --seed 1 --seconds 32 --trace 0
//	bash bench/run.sh --calibrate 10 --seed 1 --out bench/results/a.json
//	bash bench/run.sh --agree bench/results/a.json bench/results/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmarkFile is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aromabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: phy-dense, app-stack or service (with -calibrate, default all)")
	seed := fs.Int64("seed", defaultSeed, "input seed; with -calibrate, the first of consecutive seeds")
	seconds := fs.Float64("seconds", 32, "how long to measure; whole rounds run until it has passed")
	trace := fs.Int("trace", 0, "1: report per-layer metrics and write spans, profiles and layers.json to .bench_build/trace/<workload>")
	calibrate := fs.Int("calibrate", 0, "run each workload this many times, each in a fresh process with its own seed, and write the set to -out")
	out := fs.String("out", "", "file -calibrate writes the set to")
	agree := fs.Bool("agree", false, "compare two calibration sets, given as arguments, against the bounds in "+benchmarkFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "aromabench: "+format+"\n", a...)
		return 2
	}
	if *seed < 0 || *seconds < 0 {
		return usage("-seed and -seconds must not be negative")
	}
	switch {
	case *agree:
		if fs.NArg() != 2 {
			return usage("-agree takes two calibration set files")
		}
		return agreeSets(stdout, stderr, benchmarkFile, fs.Arg(0), fs.Arg(1))
	case *calibrate > 0:
		if *out == "" {
			return usage("-calibrate needs -out")
		}
		names := workloadNames()
		if *name != "" {
			if _, ok := findWorkload(*name); !ok {
				return usage("unknown workload %q (have %v)", *name, names)
			}
			names = []string{*name}
		}
		return calibrateSets(stderr, names, *calibrate, *seed, *seconds, *out)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return usage("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace is 0 or 1")
	}
	rc := newRunCfg(*seed, fullSizes)
	traceDir := ""
	if *trace == 1 {
		traceDir = filepath.Join(".bench_build", "trace", wl.name)
	}
	o, err := execute(wl, rc, *seconds, traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "aromabench: %v\n", err)
		return 1
	}
	report(stderr, wl.name, rc, *seconds, o)
	if err := json.NewEncoder(stdout).Encode(o.result); err != nil {
		return 1
	}
	if !o.Correct {
		return 1
	}
	return 0
}

// newRunCfg sizes the load to the machine: the service runs two
// clients, or one on one CPU.
func newRunCfg(seed int64, sz sizes) runCfg {
	return runCfg{seed: seed, sz: sz, clients: min(2, runtime.GOMAXPROCS(0))}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
