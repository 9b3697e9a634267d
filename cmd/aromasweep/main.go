// Command aromasweep runs experiment campaigns: a registered scenario
// swept over a parameter grid × seed replications, fanned out across
// all cores by the pkg/aroma/sweep engine, aggregated into per-cell
// statistics (mean ±CI95), and optionally written out as artifacts
// (per-run JSONL, per-cell CSV, rendered table).
//
// Usage:
//
//	aromasweep -scenario mobiledense -reps 32 -set radios=100,200,400 [-workers 0] [-out dir/]
//	aromasweep -scenario densitysweep -seeds 3,5,9 -set side=300,600
//	aromasweep -list                  # list registered scenarios
//
// Every run is isolated and bit-reproducible: rerunning the same
// campaign reproduces every per-run digest, at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"aroma/internal/profiling"
	"aroma/internal/sim"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // populate the registry
	"aroma/pkg/aroma/sweep"
)

// axisFlags collects repeated -set name=v1,v2,... flags.
type axisFlags []sweep.Axis

func (a *axisFlags) String() string { return fmt.Sprintf("%v", []sweep.Axis(*a)) }

func (a *axisFlags) Set(s string) error {
	ax, err := sweep.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

// stringsFlag collects a repeated string flag (-faults plan per arm).
type stringsFlag []string

func (f *stringsFlag) String() string { return strings.Join(*f, " | ") }

func (f *stringsFlag) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func main() {
	var axes axisFlags
	var faults stringsFlag
	name := flag.String("scenario", "", "registered scenario to sweep (see -list)")
	reps := flag.Int("reps", 1, "replications per grid cell (seeds seed, seed+1, ...)")
	seed := flag.Int64("seed", 1, "base seed for derived replication seeds")
	seeds := flag.String("seeds", "", "explicit comma-separated seed list (overrides -reps/-seed; 0 = the scenario's classic seed)")
	minutes := flag.Int("minutes", 0, "simulated minutes per run (0 = the scenario's default)")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
	out := flag.String("out", "", "directory for artifacts: runs.jsonl, cells.csv, report.txt (and metrics.jsonl with -metrics)")
	telemetry := flag.Bool("metrics", false, "enable per-run telemetry; snapshots are written to metrics.jsonl next to runs.jsonl")
	failFast := flag.Bool("failfast", false, "stop the sweep at the first failed run")
	retryFailed := flag.Bool("retry-failed", false, "re-run each failed replication once with the identical config (second attempt recorded in runs.jsonl)")
	verbose := flag.Bool("verbose", false, "print every run's captured output as it completes")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole campaign to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on clean exit")
	flag.Var(&axes, "set", "parameter axis as name=v1,v2,... (repeatable; cross-product spans the grid)")
	flag.Var(&faults, "faults", "fault-plan arm to sweep, e.g. 'jam:at=5s,for=10s,loss=40' or 'none' (repeatable; each arm reruns the whole grid with identical seeds)")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aromasweep:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "aromasweep: -scenario is required (use -list)")
		os.Exit(2)
	}

	design := sweep.Design{
		Scenario:    *name,
		Axes:        axes,
		Reps:        *reps,
		BaseSeed:    *seed,
		Horizon:     sim.Time(*minutes) * sim.Minute,
		Verbose:     *verbose,
		Telemetry:   *telemetry,
		Faults:      faults,
		RetryFailed: *retryFailed,
	}
	if *seeds != "" {
		for _, part := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aromasweep: bad -seeds entry %q: %v\n", part, err)
				os.Exit(2)
			}
			design.Seeds = append(design.Seeds, v)
		}
	}

	opts := []sweep.Option{sweep.WithWorkers(*workers)}
	if *failFast {
		opts = append(opts, sweep.WithFailFast())
	}
	if !*quiet {
		opts = append(opts, sweep.WithProgress(func(row sweep.Row) {
			status := "ok"
			if row.Err != "" {
				status = "FAIL: " + row.Err
			}
			cell := row.Label
			if cell == "" {
				cell = "(single cell)"
			}
			fmt.Printf("%-32s seed=%-6d %8s  digest=%-16s %s\n",
				cell, row.Seed, row.Wall().Round(time.Millisecond), row.Digest, status)
			if *verbose && row.Output != "" {
				fmt.Print(indent(row.Output))
			}
		}))
	}

	s, err := sweep.New(design, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aromasweep:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if !*quiet {
		fmt.Printf("sweep %s: %d cells × %d seeds = %d runs on %d workers\n",
			design.Name(), s.CellCount(), s.SeedCount(), s.Tasks(), s.Workers())
	}
	rep, runErr := s.Run(ctx)

	fmt.Println()
	fmt.Print(rep.Table().Render())
	if *out != "" {
		if err := rep.WriteArtifacts(*out); err != nil {
			fmt.Fprintln(os.Stderr, "aromasweep:", err)
			os.Exit(1)
		}
		files := "runs.jsonl, cells.csv, report.txt"
		if rep.HasTelemetry() {
			files = "runs.jsonl, metrics.jsonl, cells.csv, report.txt"
		}
		fmt.Printf("artifacts: %s/{%s}\n", strings.TrimRight(*out, "/"), files)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "aromasweep:", runErr)
		os.Exit(1)
	}
	if n := rep.FailedCount(); n > 0 {
		fmt.Fprintf(os.Stderr, "aromasweep: %d run(s) failed\n", n)
		os.Exit(1)
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}
