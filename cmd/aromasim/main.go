// Command aromasim runs registered Aroma scenarios on the simulated
// substrates through the pkg/aroma facade and its scenario registry.
//
// The default scenario, "lab", is the full end-to-end run: the lookup
// service announces, the Smart Projector registers its services under
// leases, the presenter discovers it, grabs both sessions, streams an
// animated presentation, a hijack attempt is rejected, the presenter
// walks away and the forgotten session is reclaimed — then the whole run
// is analyzed with the LPC model.
//
// Usage:
//
//	aromasim [-scenario name] [-seed N] [-minutes M] [-verbose] [-metrics out.json]
//	aromasim -list                 # list registered scenarios
//	aromasim -all                  # batch-run every scenario, print a comparison table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aroma/internal/profiling"
	"aroma/internal/sim"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // populate the registry
	"aroma/pkg/aroma/sweep"
)

func main() {
	name := flag.String("scenario", "lab", "registered scenario to run (see -list)")
	seed := flag.Int64("seed", 0, "simulation seed (0 = the scenario's classic seed)")
	minutes := flag.Int("minutes", 0, "simulated minutes to run (0 = the scenario's default)")
	verbose := flag.Bool("verbose", false, "print the full trace / extra detail")
	faults := flag.String("faults", "", "fault plan to arm (semicolon-separated specs, e.g. 'jam:at=5s,for=10s,loss=40;crash:at=20s,dev=2,for=30s'; empty or 'none' = no faults)")
	metricsOut := flag.String("metrics", "", "enable telemetry and write the run's instrument snapshot (values + sim-time series) to this JSON file")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	all := flag.Bool("all", false, "run every registered scenario and print a comparison table")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on clean exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aromasim:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := scenario.Config{
		Seed:    *seed,
		Horizon: sim.Time(*minutes) * sim.Minute,
		Verbose: *verbose,
		Out:     os.Stdout,
		Faults:  *faults,
		Metrics: *metricsOut != "",
	}

	if *all {
		runAll(ctx, cfg)
		return
	}

	// A scenario run is not preemptible, so run it aside and on SIGINT/
	// SIGTERM exit gracefully — flushing any in-flight profiles — rather
	// than dying with a truncated, unreadable profile.
	done := make(chan error, 1)
	go func() {
		res, err := scenario.Run(*name, cfg)
		if err == nil && *metricsOut != "" {
			err = writeMetrics(*metricsOut, res)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "aromasim: interrupted")
		stopProfiles()
		os.Exit(130)
	}
}

// writeMetrics writes the run's telemetry snapshot as indented JSON.
// Every scenario is a world, so a run with Config.Metrics set always
// carries a snapshot.
func writeMetrics(path string, res *scenario.Result) error {
	data, err := json.MarshalIndent(res.Telemetry, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll batch-runs every registered scenario concurrently through the
// sweep engine — one grid cell per scenario, each run in an isolated
// world with captured output — and prints one comparison row per
// scenario in registry order. With -verbose each scenario's captured
// narration prints as it completes (never interleaved).
func runAll(ctx context.Context, cfg scenario.Config) {
	design := sweep.Design{
		Scenario: "batch",
		Func: func(c scenario.Config) (*scenario.Result, error) {
			return scenario.Run(c.ParamOr("scenario", ""), c)
		},
		Axes: []sweep.Axis{sweep.Strings("scenario", scenario.Names()...)},
		// Seed 0 keeps each scenario's classic seed, exactly like a
		// plain sequential -all did before the engine.
		Seeds:   []int64{cfg.Seed},
		Horizon: cfg.Horizon,
		Verbose: cfg.Verbose,
	}
	if cfg.Faults != "" {
		design.Faults = []string{cfg.Faults}
	}
	var opts []sweep.Option
	if cfg.Verbose {
		opts = append(opts, sweep.WithProgress(func(row sweep.Row) {
			fmt.Printf("=== %s ===\n%s", row.Params["scenario"], row.Output)
		}))
	}
	s, err := sweep.New(design, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%-16s %10s %10s %9s %7s %11s\n",
		"scenario", "sim-time", "events", "findings", "issues", "violations")
	for _, row := range rep.Rows {
		name := row.Params["scenario"]
		if row.Err != "" {
			fmt.Printf("%-16s ERROR: %s\n", name, row.Err)
			continue
		}
		fmt.Printf("%-16s %10s %10d %9d %7d %11d\n",
			name, row.SimTime, row.Steps,
			row.Findings, row.Issues, row.Violations)
	}
	if n := rep.FailedCount(); n > 0 {
		fmt.Fprintf(os.Stderr, "%d scenario(s) failed\n", n)
		os.Exit(1)
	}
}
