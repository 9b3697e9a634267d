// Smartprojector: the paper's challenge application end-to-end on live
// substrates — lookup service, lease-backed registration, discovery,
// session grab, VNC-style streaming, a hijack attempt, and mobile-proxy
// command validation.

package scenarios

import (
	"aroma/internal/projector"
	"aroma/internal/rfb"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("smartprojector",
		"the challenge app: discovery, sessions, streaming, hijack rejection",
		buildSmartProjector)
}

func buildSmartProjector(cfg scenario.Config) (*scenario.Built, error) {
	w := aroma.NewWorld(
		aroma.WithName("smart-projector"),
		aroma.WithSeed(cfg.SeedOr(42)),
		aroma.WithArena(30, 20),
	)

	// Conference-room infrastructure.
	w.AddLookup("lookup", aroma.Pt(15, 18))
	projDev := w.AddDevice("projector", aroma.Pt(25, 10), aroma.WithSpec(aroma.AdapterSpec()))
	proj := projector.New(projDev.Node(), projDev.Agent(), w.Log(), projector.DefaultConfig())

	// The presenter and a would-be hijacker.
	aliceDev := w.AddDevice("alice", aroma.Pt(5, 10), aroma.WithSpec(aroma.LaptopSpec()))
	alice := projector.NewPresenter("alice", aliceDev.Node(), aliceDev.Agent())
	bobDev := w.AddDevice("bob", aroma.Pt(8, 6), aroma.WithSpec(aroma.LaptopSpec()))
	bob := projector.NewPresenter("bob", bobDev.Node(), bobDev.Agent())

	// The script, front-loaded as absolute milestones. A longer horizon
	// extends the run past the scripted 42 s; a shorter one cannot cut
	// the script.
	w.Schedule(aroma.Second, "register", func() { // discovery announcements have propagated
		proj.Register(func(err error) { must(err) })
	})

	// Alice follows the paper's operating discipline: VNC server first,
	// then both clients.
	w.Schedule(2*aroma.Second, "alice-setup", func() {
		must(alice.StartVNC(1024, 768, rfb.EncRLE))
		alice.Discover(func(err error) { must(err) })
	})
	w.Schedule(3*aroma.Second, "alice-grab", func() {
		alice.GrabProjection(func(err error) { must(err) })
		alice.GrabControl(func(err error) { must(err) })
	})

	// She presents: her screen animates, frames flow to the projector.
	w.Schedule(4*aroma.Second, "present", func() {
		anim, err := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.02)
		must(err)
		w.Ticker(100*aroma.Millisecond, "slides", anim.Step)
	})

	// Bob tries to take over mid-presentation.
	w.Schedule(34*aroma.Second, "bob-setup", func() {
		cfg.Printf("after 30s of presenting: projector shows %d frames, projecting=%v\n",
			proj.FramesShown, proj.Projecting())
		must(bob.StartVNC(800, 600, rfb.EncRLE))
		bob.Discover(func(err error) { must(err) })
	})
	w.Schedule(36*aroma.Second, "bob-hijack", func() {
		bob.GrabProjection(func(err error) {
			cfg.Printf("bob's hijack attempt: %v\n", err)
		})
	})

	// Alice uses the downloaded mobile proxy: an invalid command never
	// touches the network.
	w.Schedule(38*aroma.Second, "proxy-commands", func() {
		alice.Command(projector.CmdPowerToggle, func(err error) {
			cfg.Printf("power toggle: err=%v, projector power=%v\n", err, proj.Power())
		})
		alice.Command(42, func(err error) {
			cfg.Printf("invalid command rejected locally: %v (round trips saved: %d)\n",
				err, alice.RoundTripsSaved)
		})
	})

	// Orderly teardown — the step the paper notes users forget.
	w.Schedule(40*aroma.Second, "release", func() {
		alice.ReleaseProjection(func(err error) { must(err) })
		alice.ReleaseControl(func(err error) { must(err) })
	})

	finish := func(res *scenario.Result) {
		cfg.Printf("after release: projecting=%v, projection owner=%q\n",
			proj.Projecting(), proj.Projection.Owner())
		cfg.Printf("final app state: %v\n", proj.AppState())

		// Fold the run into the model: the projector's live application
		// state becomes its abstract layer.
		projDev.Entity().AppState = proj.AppState()
		res.Report = w.Analyze()
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(42 * aroma.Second), Finish: finish}, nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
