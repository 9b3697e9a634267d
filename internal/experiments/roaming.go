package experiments

import (
	"aroma/internal/geo"
	"aroma/internal/metrics"
	"aroma/internal/rfb"
	"aroma/internal/sim"
	"aroma/pkg/aroma"
)

// C9 reproduces the paper's mobility premise: "the mobile nature of many
// pervasive computing systems ensures that the environment's presence
// will determine the 'semantics' of pervasive computing — the very
// meaning of the term 'pervasive' will depend on whether the device can
// cope with a wide variation in its surrounding environment while
// performing its intended function."
//
// A presenter carries the streaming laptop away from the projector at
// walking speed. Rate adaptation steps the link down tier by tier and
// the projection frame rate decays to zero at the range edge — the
// function degrades *because the environment changed*, with no fault in
// any component.
func C9(seed int64) *Result {
	r := &Result{ID: "C9", Title: "Roaming: projection vs presenter mobility"}

	w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(400, 50))
	srvDev := w.AddDevice("laptop", geo.Pt(5, 25))
	cliDev := w.AddDevice("adapter", geo.Pt(0, 25))
	srvNode, cliNode := srvDev.Node(), cliDev.Node()
	laptopRadio, adapterRadio := srvDev.Radio(), cliDev.Radio()

	fb, err := rfb.NewFramebuffer(640, 480)
	if err != nil {
		panic(err)
	}
	rfb.NewServer(srvNode, fb, rfb.EncRLE)
	cli := rfb.NewClient(cliNode, srvNode.Addr())
	anim, err := rfb.NewAnimator(fb, 0.05)
	if err != nil {
		panic(err)
	}
	anim.Textured = true
	w.Ticker(100*sim.Millisecond, "anim", anim.Step) // 10 source fps

	// Walk from 5 m to 275 m over 90 s (~3 m/s, a brisk exit).
	walk := geo.Path{Waypoints: []geo.Point{geo.Pt(5, 25), geo.Pt(275, 25)}, SpeedMPS: 3}
	srvDev.MoveAlong(walk)

	frames := 0
	stop := cli.Stream(2*sim.Second, func(tiles int) {
		if tiles > 0 {
			frames++
		}
	})
	defer stop()

	const window = 10 * sim.Second
	tbl := metrics.NewTable("Projection fps and link state per 10 s window while walking away",
		"window start (s)", "distance (m)", "SNR dB", "fps")
	fpsSeries := &metrics.Series{Name: "projection fps while roaming", XLabel: "distance m", YLabel: "fps"}
	prevFrames := 0
	for i := 0; i < 9; i++ {
		w.RunUntil(sim.Time(i+1) * window)
		dist := laptopRadio.Pos.Dist(adapterRadio.Pos)
		snr := w.Medium().SNRAtDBm(laptopRadio, adapterRadio)
		fps := float64(frames-prevFrames) / window.Seconds()
		prevFrames = frames
		tbl.AddRow(float64(i)*window.Seconds(), dist, snr, fps)
		fpsSeries.Add(dist, fps)
	}
	tbl.AddNote("same hardware, same software, zero faults — only the environment changed")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, fpsSeries)

	first := fpsSeries.Ys[0]
	last := fpsSeries.Ys[len(fpsSeries.Ys)-1]
	r.ShapeOK = first > 3 && last < 0.5 && first > 6*lastOr(last, 0.01)
	r.ShapeWhy = "projection works near the projector and dies at the range edge; mobility alone changes the system's semantics"
	return r
}

// lastOr guards division by a near-zero tail.
func lastOr(v, min float64) float64 {
	if v < min {
		return min
	}
	return v
}
