// Walkabout: the mobility story — a presenter starts a projection and
// then wanders the building with the laptop. Rate adaptation fights the
// growing distance, frames thin out, and at the range edge the stream
// dies and the forgotten session is reclaimed for the next user. Nothing
// failed; the environment changed — which is the paper's definition of
// what makes computing "pervasive" hard.

package scenarios

import (
	"aroma/internal/mobility"
	"aroma/internal/projector"
	"aroma/internal/radio"
	"aroma/internal/rfb"
	"aroma/internal/trace"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("walkabout",
		"presenter wanders off: rate adaptation, range edge, session reclaim",
		buildWalkabout)
}

func buildWalkabout(cfg scenario.Config) (*scenario.Built, error) {
	w := aroma.NewWorld(
		aroma.WithName("walkabout"),
		aroma.WithSeed(cfg.SeedOr(11)),
		aroma.WithArena(400, 60),
	)

	w.AddLookup("lookup", aroma.Pt(25, 30))

	projDev := w.AddDevice("projector", aroma.Pt(30, 30), aroma.WithSpec(aroma.AdapterSpec()))
	pcfg := projector.DefaultConfig()
	pcfg.IdleLimit = 45 * aroma.Second
	proj := projector.New(projDev.Node(), projDev.Agent(), w.Log(), pcfg)

	aliceDev := w.AddDevice("alice", aroma.Pt(20, 30), aroma.WithSpec(aroma.LaptopSpec()))
	alice := projector.NewPresenter("alice", aliceDev.Node(), aliceDev.Agent())

	w.Schedule(aroma.Second, "register", func() { proj.Register(nil) })
	w.Schedule(3*aroma.Second, "alice-setup", func() {
		must(alice.StartVNC(640, 480, rfb.EncRLE))
		alice.Discover(func(err error) { must(err) })
	})
	w.Schedule(4*aroma.Second, "alice-grab", func() {
		alice.GrabProjection(func(err error) { must(err) })
	})

	w.Schedule(5*aroma.Second, "walk-off", func() {
		anim, err := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.05)
		must(err)
		anim.Textured = true
		w.Ticker(100*aroma.Millisecond, "anim", anim.Step)

		// The walkabout: down the corridor, around the far wing, and out.
		// The facade's SetPos keeps the radio and model entity in sync.
		walk := mobility.Patrol([]aroma.Point{
			aroma.Pt(20, 30), aroma.Pt(150, 30), aroma.Pt(330, 30), aroma.Pt(330, 10),
		}, 3.0)
		walk.Waypoints = walk.Waypoints[:len(walk.Waypoints)-1] // don't come back
		aliceDev.MoveAlong(walk)
	})

	// A monitor ticker narrates the decay every 15 s. It only observes —
	// the run always plays to the horizon, and once the session has been
	// reclaimed and the story told, the monitor goes quiet.
	cfg.Println("time     distance  SNR(dB)  rate(Mb/s)  frames-in-window  session")
	med := w.Medium()
	prev := uint64(0)
	i := 0
	var stopMonitor func()
	stopMonitor = w.Ticker(15*aroma.Second, "monitor", func() {
		dist := aliceDev.Pos().Dist(projDev.Pos())
		snr := med.SNRAtDBm(aliceDev.Radio(), projDev.Radio())
		rate := 0.0
		if snr >= radio.Rates[0].MinSINRdB {
			rate = radio.PickRate(snr).Mbps
		}
		holder := proj.Projection.Owner()
		if holder == "" {
			holder = "(free)"
		}
		cfg.Printf("%-8s %7.0fm  %6.1f  %9.1f  %17d  %s\n",
			w.Now(), dist, snr, rate, proj.FramesShown-prev, holder)
		prev = proj.FramesShown
		if !proj.Projection.Held() && i > 4 {
			stopMonitor()
		}
		i++
	})

	finish := func(res *scenario.Result) {
		cfg.Printf("\nprojector showed %d frames total; session end events in trace: %d\n",
			proj.FramesShown, len(w.Log().BySeverity(trace.Issue)))
		cfg.Println("no component failed — the environment reclaimed the system's semantics")

		projDev.Entity().AppState = proj.AppState()
		res.Report = w.Analyze()
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(4 * aroma.Minute), Finish: finish}, nil
}
