// Command lpcreport regenerates the paper's five figures from the model
// inventory and performs the paper's layer-by-layer Smart Projector
// analysis with the LPC analyzer — for the paper's two audiences
// (researchers vs casual users), optionally with the user column
// disabled to show the OSI-style view the paper argues against.
//
// Usage:
//
//	lpcreport [-audience researcher|casual] [-user-column=true] [-figures]
//	lpcreport -file system.json            # analyze a JSON system description
package main

import (
	"flag"
	"fmt"
	"os"

	"aroma/internal/core"
	"aroma/internal/experiments"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
)

func main() {
	audience := flag.String("audience", "researcher", "user audience: researcher or casual")
	userColumn := flag.Bool("user-column", true, "include the user column (false = OSI-style device-only view)")
	figures := flag.Bool("figures", true, "render the model figures")
	file := flag.String("file", "", "analyze a JSON system description instead of the built-in Smart Projector")
	flag.Parse()

	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k := sim.New(1)
		sys, err := core.LoadSystem(k, data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg := core.DefaultConfig()
		cfg.UserColumn = *userColumn
		fmt.Println(core.Analyze(sys, cfg).Render())
		return
	}

	var fac user.Faculties
	switch *audience {
	case "researcher":
		fac = user.ResearcherFaculties()
	case "casual":
		fac = user.CasualFaculties()
	default:
		fmt.Fprintf(os.Stderr, "unknown audience %q\n", *audience)
		os.Exit(2)
	}

	if *figures {
		fmt.Println(core.RenderFigure1())
		for _, l := range trace.Layers() {
			fmt.Println(core.RenderFigureForLayer(l))
		}
	}

	k := sim.New(1)
	sys := experiments.SmartProjectorSystem(k, fac, true)
	cfg := core.DefaultConfig()
	cfg.UserColumn = *userColumn
	report := core.Analyze(sys, cfg)
	fmt.Println(report.Render())
}
