// Command experiments runs the paper-reproduction experiment suite and
// prints every regenerated table and figure-shaped series (the entries
// of internal/experiments.All, which -list prints).
//
// Usage:
//
//	experiments [-run all|F1|...|F5|C1|...|C10|S1|S2] [-seed N] [-list]
package main

import (
	"flag"
	"fmt"
	"os"

	"aroma/internal/experiments"
)

func main() {
	runID := flag.String("run", "all", "experiment id to run (F1..F5, C1..C10, S1, S2) or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	var toRun []experiments.Experiment
	if *runID == "all" {
		toRun = experiments.All()
	} else {
		e := experiments.ByID(*runID)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *runID)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{*e}
	}

	failures := 0
	for _, e := range toRun {
		res := e.Run(*seed)
		fmt.Print(res.Render())
		if !res.ShapeOK {
			failures++
		}
	}
	fmt.Printf("\n%d/%d experiments match the paper's qualitative shape\n", len(toRun)-failures, len(toRun))
	if failures > 0 {
		os.Exit(1)
	}
}
