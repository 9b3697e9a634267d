// Lab: the full Aroma lab scenario end-to-end on the simulated
// substrates — the lookup service announces, the Smart Projector
// registers its two services under leases, the presenter's laptop
// discovers the projector, grabs both sessions, streams an animated
// presentation over the VNC-style protocol, a second user's hijack
// attempt is rejected, the presenter walks away and the forgotten
// session is reclaimed — and finally the whole run is analyzed with the
// LPC model (trace events folded in).

package scenarios

import (
	"fmt"

	"aroma/internal/projector"
	"aroma/internal/rfb"
	"aroma/internal/trace"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("lab",
		"the full lab run: announce, register, discover, stream, hijack, reclaim",
		buildLab)
}

func buildLab(cfg scenario.Config) (*scenario.Built, error) {
	w := aroma.NewWorld(
		aroma.WithName("aroma-lab-run"),
		aroma.WithSeed(cfg.SeedOr(1)),
		aroma.WithArena(30, 20),
	)

	say := func(format string, args ...any) {
		cfg.Printf("[%8s] %s\n", w.Now(), fmt.Sprintf(format, args...))
	}

	// The typed event bus narrates the substrates' own concerns live.
	w.Subscribe(trace.Issue, func(ev aroma.TraceEvent) {
		say("bus: %s %s: %s", ev.Layer, ev.Severity, ev.Message())
	})

	// Infrastructure.
	lookup := w.AddLookup("lookup", aroma.Pt(15, 18))
	say("lookup service online at addr %d, announcing", lookup.Addr())

	projDev := w.AddDevice("projector", aroma.Pt(25, 10),
		aroma.WithSpec(aroma.AdapterSpec()),
		aroma.WithPurpose(aroma.Purpose{
			Description:  "research prototype",
			Capabilities: map[string]float64{"remote-projection": 0.8, "remote-control": 0.8, "zero-config": 0.2},
			AssumedSkill: 0.9,
		}),
	)
	pcfg := projector.DefaultConfig()
	pcfg.IdleLimit = 90 * aroma.Second
	proj := projector.New(projDev.Node(), projDev.Agent(), w.Log(), pcfg)

	aliceDev := w.AddDevice("alice-laptop", aroma.Pt(5, 10), aroma.WithSpec(aroma.LaptopSpec()))
	alice := projector.NewPresenter("alice", aliceDev.Node(), aliceDev.Agent())
	bobDev := w.AddDevice("bob-laptop", aroma.Pt(8, 6), aroma.WithSpec(aroma.LaptopSpec()))
	bob := projector.NewPresenter("bob", bobDev.Node(), bobDev.Agent())

	// The presenter herself: physically at the laptop, believing she is
	// projecting even after she walks away.
	w.AddUser("alice", aroma.Pt(5, 10.5),
		aroma.WithFaculties(aroma.Researcher()),
		aroma.Believing("projecting", "true"),
		aroma.Believing("projection.owner", "alice"),
		aroma.Operating("projector"),
	)

	// Script the scenario.
	w.Schedule(aroma.Second, "register", func() {
		proj.Register(func(err error) {
			if err != nil {
				say("projector registration FAILED: %v", err)
				return
			}
			say("projector registered display+control services (leased, auto-renewed)")
		})
	})
	w.Schedule(5*aroma.Second, "alice-setup", func() {
		if err := alice.StartVNC(1024, 768, rfb.EncRLE); err != nil {
			say("alice VNC failed: %v", err)
			return
		}
		say("alice started her VNC server (1024x768)")
		alice.Discover(func(err error) {
			if err != nil {
				say("alice discovery failed: %v", err)
				return
			}
			addr, _ := alice.ProjectorAddr()
			say("alice discovered the smart projector at addr %d (proxy downloaded: %v)", addr, alice.HasProxy())
			alice.GrabProjection(func(err error) {
				if err != nil {
					say("alice grab projection failed: %v", err)
					return
				}
				say("alice holds the projection session; streaming begins")
			})
			alice.GrabControl(func(err error) {
				if err == nil {
					say("alice holds the control session")
				}
			})
		})
	})

	// Alice presents: animation on her screen for two minutes.
	w.Schedule(10*aroma.Second, "present", func() {
		if alice.VNC == nil {
			return
		}
		anim, _ := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.02)
		stopAnim := w.Ticker(100*aroma.Millisecond, "slides", anim.Step)
		w.Schedule(2*aroma.Minute, "stop-presenting", func() {
			stopAnim()
			say("alice finishes presenting and WALKS AWAY without releasing (the paper's forgotten session)")
		})
	})

	// Bob tries to hijack mid-presentation.
	w.Schedule(aroma.Minute, "bob-hijack", func() {
		if err := bob.StartVNC(800, 600, rfb.EncRLE); err != nil {
			return
		}
		bob.Discover(func(err error) {
			if err != nil {
				return
			}
			bob.GrabProjection(func(err error) {
				if err != nil {
					say("bob's grab while alice presents was REJECTED: %v", err)
				} else {
					say("bob HIJACKED the projector (bug!)")
				}
			})
		})
	})

	// Bob waits politely for the reclaimed session.
	w.Schedule(2*aroma.Minute+20*aroma.Second, "bob-waits", func() {
		proj.Projection.WaitFor("bob", func() {
			say("idle timeout reclaimed alice's session; bob granted projection without any administrator")
		})
	})

	// Brightness fiddling through the control proxy.
	w.Schedule(90*aroma.Second, "brightness", func() {
		alice.Command(projector.CmdPowerToggle, func(err error) {
			if err == nil {
				say("alice powered the projector on via remote control")
			}
		})
		alice.Command(99, func(err error) {
			say("alice's invalid command rejected locally by the mobile proxy: %v", err)
		})
	})

	finish := func(res *scenario.Result) {
		say("simulation complete: projector showed %d frames, served %d commands", proj.FramesShown, proj.CommandsServed)
		say("lookup registry: %d live registrations; medium: %d frames sent, %d lost",
			lookup.Count(), w.Medium().Sent, w.Medium().Lost)

		if cfg.Verbose {
			cfg.Println("\nFull trace:")
			cfg.Printf("%s", w.Log().Render(trace.Info))
		}

		// Fold the run into an LPC analysis: the projector's live state
		// becomes its abstract layer, and the trace events are classified.
		projDev.Entity().AppState = proj.AppState()
		report := w.Analyze()
		cfg.Println()
		cfg.Println(report.Render())
		res.Report = report
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(6 * aroma.Minute), Finish: finish}, nil
}
