// Package integration exercises whole-system scenarios that span every
// substrate at once: discovery + leases + sessions + RFB streaming +
// mobility + the LPC analyzer, on one shared radio medium. These are the
// tests that would catch cross-module contract drift that unit tests
// cannot see.
package integration

import (
	"errors"
	"strings"
	"testing"

	"aroma/internal/core"
	"aroma/internal/device"
	"aroma/internal/discovery"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/mobility"
	"aroma/internal/netsim"
	"aroma/internal/projector"
	"aroma/internal/radio"
	"aroma/internal/rfb"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
)

// lab is a fully wired Aroma conference room.
type lab struct {
	k      *sim.Kernel
	e      *env.Environment
	med    *radio.Medium
	m      *mac.MAC
	nw     *netsim.Network
	log    *trace.Log
	lookup *discovery.Lookup
	proj   *projector.SmartProjector
	radios map[string]*radio.Radio // presenters' radios by name
}

func buildLab(seed int64, cfg projector.Config) *lab {
	k := sim.New(seed)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 300, 50)))
	med := radio.NewMedium(k, e)
	m := mac.New(med, mac.Config{})
	nw := netsim.New(m)
	log := trace.NewForKernel(k)

	lkNode := nw.NewNode("lookup", m.AddStation(med.NewRadio("lookup", geo.Pt(20, 25), 6, 15)))
	lk := discovery.NewLookup(lkNode)
	lk.Start()

	projNode := nw.NewNode("projector", m.AddStation(med.NewRadio("projector", geo.Pt(30, 25), 6, 15)))
	proj := projector.New(projNode, discovery.NewAgent(projNode), log, cfg)

	l := &lab{k: k, e: e, med: med, m: m, nw: nw, log: log, lookup: lk, proj: proj, radios: map[string]*radio.Radio{}}
	k.RunUntil(sim.Second)
	proj.Register(nil)
	k.RunUntil(2 * sim.Second)
	return l
}

// presenter creates a ready presenter at pos: it waits out one announce
// period so the agent has heard the lookup, then discovers the projector.
func (l *lab) presenter(t *testing.T, name string, pos geo.Point) *projector.Presenter {
	t.Helper()
	r := l.med.NewRadio(name, pos, 6, 15)
	l.radios[name] = r
	node := l.nw.NewNode(name, l.m.AddStation(r))
	pr := projector.NewPresenter(name, node, discovery.NewAgent(node))
	l.k.RunUntil(l.k.Now() + discovery.DefaultAnnouncePeriod + sim.Second)
	discErr := errors.New("pending")
	pr.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + sim.Second)
	if discErr != nil {
		t.Fatalf("%s discover: %v", name, discErr)
	}
	return pr
}

func TestWholeLabDeterminism(t *testing.T) {
	run := func() (uint64, uint64, sim.Time, int) {
		l := buildLab(1234, projector.DefaultConfig())
		alice := l.presenter(t, "alice", geo.Pt(5, 25))
		if err := alice.StartVNC(800, 600, rfb.EncRLE); err != nil {
			t.Fatal(err)
		}
		alice.GrabProjection(nil)
		alice.GrabControl(nil)
		l.k.RunUntil(l.k.Now() + sim.Second)
		anim, err := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.03)
		if err != nil {
			t.Fatal(err)
		}
		anim.Textured = true
		l.k.Ticker(70*sim.Millisecond, "anim", anim.Step)
		l.k.RunUntil(l.k.Now() + 30*sim.Second)
		return l.proj.FramesShown, l.med.Sent, l.k.Now(), len(l.log.Events())
	}
	f1, s1, t1, l1 := run()
	f2, s2, t2, l2 := run()
	if f1 != f2 || s1 != s2 || t1 != t2 || l1 != l2 {
		t.Fatalf("whole-lab run not deterministic: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			f1, s1, t1, l1, f2, s2, t2, l2)
	}
	if f1 == 0 {
		t.Fatal("no frames flowed")
	}
}

func TestThreePresenterDay(t *testing.T) {
	cfg := projector.DefaultConfig()
	cfg.IdleLimit = 20 * sim.Second
	l := buildLab(2, cfg)

	names := []string{"alice", "bob", "carol"}
	var presented []string
	for i, name := range names {
		pr := l.presenter(t, name, geo.Pt(float64(4+2*i), 25))
		if err := pr.StartVNC(800, 600, rfb.EncRLE); err != nil {
			t.Fatal(err)
		}
		var grabErr error = errors.New("pending")
		pr.GrabProjection(func(err error) { grabErr = err })
		l.k.RunUntil(l.k.Now() + 2*sim.Second)
		if grabErr != nil {
			t.Fatalf("%s grab: %v", name, grabErr)
		}
		// Present for 10 s, then release properly.
		anim, _ := rfb.NewAnimator(pr.VNC.Framebuffer(), 0.02)
		stopAnim := l.k.Ticker(200*sim.Millisecond, "anim", anim.Step)
		l.k.RunUntil(l.k.Now() + 10*sim.Second)
		stopAnim()
		if l.proj.Projection.Owner() != name {
			t.Fatalf("owner = %q during %s's talk", l.proj.Projection.Owner(), name)
		}
		presented = append(presented, name)
		pr.ReleaseProjection(nil)
		l.k.RunUntil(l.k.Now() + 2*sim.Second)
		if l.proj.Projection.Held() {
			t.Fatalf("session still held after %s released", name)
		}
	}
	if len(presented) != 3 {
		t.Fatalf("presented = %v", presented)
	}
	if l.proj.FramesShown == 0 {
		t.Fatal("no frames in the whole day")
	}
}

func TestProjectorCrashRecoveryCycle(t *testing.T) {
	cfg := projector.DefaultConfig()
	cfg.LeaseDuration = 15 * sim.Second
	l := buildLab(3, cfg)
	alice := l.presenter(t, "alice", geo.Pt(5, 25))
	if err := alice.StartVNC(800, 600, rfb.EncRLE); err != nil {
		t.Fatal(err)
	}
	alice.GrabProjection(nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if !l.proj.Projecting() {
		t.Fatal("not projecting before crash")
	}

	// Crash: leases lapse, lookup self-cleans.
	l.proj.Crash()
	l.k.RunUntil(l.k.Now() + 40*sim.Second)
	if l.lookup.Count() != 0 {
		t.Fatalf("lookup still lists %d services after crash", l.lookup.Count())
	}

	// A replacement projector appears; alice rediscovers and resumes.
	projNode2 := l.nw.NewNode("projector2", l.m.AddStation(l.med.NewRadio("projector2", geo.Pt(32, 25), 6, 15)))
	proj2 := projector.New(projNode2, discovery.NewAgent(projNode2), l.log, projector.DefaultConfig())
	l.k.RunUntil(l.k.Now() + 6*sim.Second) // hear announcements
	proj2.Register(nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if l.lookup.Count() != 2 {
		t.Fatalf("replacement registrations = %d", l.lookup.Count())
	}
	var discErr error = errors.New("pending")
	alice.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("rediscovery: %v", discErr)
	}
	var grabErr error = errors.New("pending")
	alice.GrabProjection(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if grabErr != nil {
		t.Fatalf("re-grab on replacement: %v", grabErr)
	}
	if !proj2.Projecting() {
		t.Fatal("replacement projector not projecting")
	}
}

func TestRoamingPresenterSessionReclaimed(t *testing.T) {
	cfg := projector.DefaultConfig()
	cfg.IdleLimit = 30 * sim.Second
	l := buildLab(4, cfg)
	alice := l.presenter(t, "alice", geo.Pt(5, 25))
	if err := alice.StartVNC(640, 480, rfb.EncRLE); err != nil {
		t.Fatal(err)
	}
	alice.GrabProjection(nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)

	anim, _ := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.03)
	anim.Textured = true
	l.k.Ticker(100*sim.Millisecond, "anim", anim.Step)

	// Alice walks out of the building mid-presentation.
	walkRadio := l.radios["alice"]
	if walkRadio == nil {
		t.Fatal("alice's radio not found")
	}
	walk := geo.Path{Waypoints: []geo.Point{walkRadio.Pos, geo.Pt(290, 25)}, SpeedMPS: 4}
	mobility.Start(l.k, walk, 500*sim.Millisecond, func(p geo.Point) { walkRadio.SetPos(p) })

	framesBeforeWalkout := l.proj.FramesShown
	l.k.RunUntil(l.k.Now() + 3*sim.Minute)
	if framesBeforeWalkout == 0 && l.proj.FramesShown == 0 {
		t.Fatal("no frames ever flowed")
	}
	// Out of range: no frames, no touches — the session must have been
	// reclaimed by now.
	if l.proj.Projection.Held() {
		t.Fatalf("session still held by %q after the presenter left the building", l.proj.Projection.Owner())
	}
}

func TestBackgroundChatterDegradesProjection(t *testing.T) {
	measure := func(chatterers int) uint64 {
		l := buildLab(5, projector.DefaultConfig())
		alice := l.presenter(t, "alice", geo.Pt(5, 25))
		if err := alice.StartVNC(640, 480, rfb.EncRLE); err != nil {
			t.Fatal(err)
		}
		alice.GrabProjection(nil)
		l.k.RunUntil(l.k.Now() + 2*sim.Second)
		anim, _ := rfb.NewAnimator(alice.VNC.Framebuffer(), 0.05)
		anim.Textured = true
		l.k.Ticker(100*sim.Millisecond, "anim", anim.Step)
		// Co-channel appliances chattering at high duty cycle.
		for i := 0; i < chatterers; i++ {
			tx := l.m.AddStation(l.med.NewRadio("chat-tx", geo.Pt(float64(10+i), 20), 6, 15))
			rx := l.m.AddStation(l.med.NewRadio("chat-rx", geo.Pt(float64(10+i), 30), 6, 15))
			dst := rx.Addr()
			l.k.Ticker(8*sim.Millisecond, "chatter", func() {
				_ = tx.Send(dst, 12000*8, nil, nil)
			})
		}
		start := l.proj.FramesShown
		l.k.RunUntil(l.k.Now() + 20*sim.Second)
		return l.proj.FramesShown - start
	}
	quiet := measure(0)
	crowded := measure(6)
	if quiet == 0 {
		t.Fatal("no frames in the quiet room")
	}
	if crowded >= quiet {
		t.Fatalf("chatter did not degrade projection: quiet=%d crowded=%d", quiet, crowded)
	}
}

func TestLiveSystemLPCAnalysis(t *testing.T) {
	cfg := projector.DefaultConfig()
	cfg.IdleLimit = 20 * sim.Second
	l := buildLab(6, cfg)
	alice := l.presenter(t, "alice", geo.Pt(5, 25))
	if err := alice.StartVNC(800, 600, rfb.EncRLE); err != nil {
		t.Fatal(err)
	}
	alice.GrabProjection(nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)

	// A hijack attempt and an idle reclamation both land in the trace.
	mallory := l.presenter(t, "mallory", geo.Pt(8, 25))
	if err := mallory.StartVNC(640, 480, rfb.EncRaw); err != nil {
		t.Fatal(err)
	}
	mallory.GrabProjection(nil) // rejected; logged as a violation
	l.k.RunUntil(l.k.Now() + sim.Minute)

	aliceUser := user.New(l.k, "alice", user.ResearcherFaculties())
	aliceUser.Mental.Believe("projecting", "true")
	sys := &core.System{Name: "live-lab", Env: l.e, Medium: l.med, Log: l.log}
	sys.AddDevice(&core.DeviceEntity{
		Name: "projector", Pos: geo.Pt(30, 25), Spec: device.AromaAdapterSpec(),
		AppState: l.proj.AppState(),
		Purpose:  core.DesignPurpose{Capabilities: map[string]float64{"remote-projection": 0.8}, AssumedSkill: 0.9},
	})
	sys.AddUser(&core.UserEntity{U: aliceUser, Operates: []string{"projector"}})

	rep := core.Analyze(sys, core.DefaultConfig())
	// The hijack violation from the running system must appear in the
	// abstract layer of the report.
	abstract := rep.ByLayer(core.Abstract)
	foundHijack := false
	foundDivergence := false
	for _, f := range abstract {
		if f.Severity >= trace.Violation {
			switch {
			case strings.Contains(f.Detail, "hijack"):
				foundHijack = true
			case strings.Contains(f.Detail, "consistency"):
				foundDivergence = true
			}
		}
	}
	if !foundHijack {
		t.Fatalf("live hijack violation not folded into the report: %v", abstract)
	}
	// Alice still believes "projecting" but her session was reclaimed
	// during the idle minute — the analyzer must catch the divergence.
	if !foundDivergence {
		t.Fatalf("mental-model divergence not flagged: %v", abstract)
	}
}
