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
//	aromasim -all                  # run every scenario in turn, print a comparison table
//
// -all runs the registered scenarios one after another, in registry
// order, each into a private buffer, so its output (the table, and with
// -verbose each scenario's narration) is deterministic. It takes
// -seed, -minutes, -verbose and -faults; -metrics writes one run's
// snapshot and is rejected with -all.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aroma/internal/fault"
	"aroma/internal/profiling"
	"aroma/internal/sim"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // populate the registry
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

	if *all && *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "aromasim: -metrics writes one run's snapshot and cannot be combined with -all")
		os.Exit(2)
	}

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
		runAll(ctx, cfg, stopProfiles)
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

// runAll runs every registered scenario in registry order, one after
// another, each into a private buffer, and prints one comparison row
// per scenario. With -verbose each scenario's narration prints as its
// run ends, so the output is the same on every run. The fault plan is
// parsed once up front, so a bad plan is one error rather than one per
// scenario; an interrupt is honoured between scenarios.
func runAll(ctx context.Context, cfg scenario.Config, stopProfiles func()) {
	if _, err := fault.Parse(cfg.Faults); err != nil {
		fmt.Fprintln(os.Stderr, "aromasim:", err)
		os.Exit(1)
	}
	var table bytes.Buffer
	failed := 0
	for _, name := range scenario.Names() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "aromasim: interrupted")
			stopProfiles()
			os.Exit(130)
		}
		var buf bytes.Buffer
		cfg.Out = &buf
		res, err := scenario.Run(name, cfg)
		if cfg.Verbose {
			fmt.Printf("=== %s ===\n%s", name, buf.Bytes())
		}
		if err != nil {
			failed++
			fmt.Fprintf(&table, "%-16s ERROR: %s\n", name, err)
			continue
		}
		fmt.Fprintf(&table, "%-16s %10s %10d %9d %7d %11d\n",
			name, res.SimTime, res.Steps, res.Findings(), res.Issues(), res.Violations())
	}
	fmt.Printf("%-16s %10s %10s %9s %7s %11s\n%s",
		"scenario", "sim-time", "events", "findings", "issues", "violations", table.Bytes())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d scenario(s) failed\n", failed)
		os.Exit(1)
	}
}
