package projector

import (
	"errors"
	"testing"

	"aroma/internal/discovery"
	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/rfb"
	"aroma/internal/session"
	"aroma/internal/sim"
	"aroma/internal/trace"
)

// lab wires up the full Aroma lab: lookup service, smart projector, and
// n presenter laptops, all in one room.
type lab struct {
	k          *sim.Kernel
	lookup     *discovery.Lookup
	projector  *SmartProjector
	presenters []*Presenter
	log        *trace.Log
}

func newLab(t *testing.T, seed int64, n int, cfg Config) *lab {
	t.Helper()
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 40, 20)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	log := trace.NewForKernel(k)

	lkNode := nw.NewNode("lookup", m.AddStation(med.NewRadio("lk", geo.Pt(20, 10), 6, 15)))
	lk := discovery.NewLookup(lkNode)
	lk.Start()

	projNode := nw.NewNode("projector", m.AddStation(med.NewRadio("proj", geo.Pt(30, 10), 6, 15)))
	projAgent := discovery.NewAgent(projNode)
	proj := New(projNode, projAgent, log, cfg)

	l := &lab{k: k, lookup: lk, projector: proj, log: log}
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		node := nw.NewNode(name, m.AddStation(med.NewRadio(name, geo.Pt(float64(5+2*i), 10), 6, 15)))
		agent := discovery.NewAgent(node)
		l.presenters = append(l.presenters, NewPresenter(name, node, agent))
	}
	// Let discovery announcements propagate, then register.
	k.RunUntil(sim.Second)
	var regErr error = errors.New("not done")
	proj.Register(func(err error) { regErr = err })
	k.RunUntil(3 * sim.Second)
	if regErr != nil {
		t.Fatalf("projector registration: %v", regErr)
	}
	return l
}

// connect has presenter i start VNC, discover, and grab both sessions.
func (l *lab) connect(t *testing.T, i int) {
	t.Helper()
	pr := l.presenters[i]
	if err := pr.StartVNC(1024, 768, rfb.EncRLE); err != nil {
		t.Fatal(err)
	}
	var discErr error = errors.New("pending")
	pr.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("discover: %v", discErr)
	}
	var grabErr error = errors.New("pending")
	pr.GrabProjection(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if grabErr != nil {
		t.Fatalf("grab projection: %v", grabErr)
	}
	pr.GrabControl(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if grabErr != nil {
		t.Fatalf("grab control: %v", grabErr)
	}
}

func TestProxyBuildsAndValidates(t *testing.T) {
	data, err := BuildProxy()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || len(data) > 200 {
		t.Fatalf("proxy size %d bytes unreasonable", len(data))
	}
}

func TestEndToEndProjection(t *testing.T) {
	l := newLab(t, 1, 1, DefaultConfig())
	l.connect(t, 0)
	pr := l.presenters[0]

	// Draw on the laptop screen; frames must reach the projector.
	anim, err := rfb.NewAnimator(pr.VNC.Framebuffer(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	l.k.Ticker(50*sim.Millisecond, "anim", anim.Step)
	l.k.RunUntil(l.k.Now() + 10*sim.Second)

	if !l.projector.Projecting() {
		t.Fatal("projector not projecting")
	}
	if l.projector.FramesShown < 5 {
		t.Fatalf("frames shown = %d", l.projector.FramesShown)
	}
	if l.projector.display == nil {
		t.Fatal("no screen")
	}
	st := l.projector.AppState()
	if st["projecting"] != "true" || st["projection.owner"] != "a" {
		t.Fatalf("app state = %v", st)
	}
}

func TestHijackRejected(t *testing.T) {
	l := newLab(t, 2, 2, DefaultConfig())
	l.connect(t, 0)
	mallory := l.presenters[1]
	if err := mallory.StartVNC(800, 600, rfb.EncRaw); err != nil {
		t.Fatal(err)
	}
	var discErr error = errors.New("pending")
	mallory.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatal(discErr)
	}
	var grabErr error
	mallory.GrabProjection(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if !errors.Is(grabErr, ErrDenied) {
		t.Fatalf("hijack grab err = %v, want denied", grabErr)
	}
	if l.projector.Projection.Owner() != "a" {
		t.Fatal("hijack succeeded")
	}
	// The violation is visible in the trace for LPC analysis.
	found := false
	for _, ev := range l.log.BySeverity(trace.Violation) {
		if ev.Layer == trace.Abstract {
			found = true
		}
	}
	if !found {
		t.Fatal("hijack not traced")
	}
}

func TestForgottenSessionReclaimed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleLimit = 30 * sim.Second
	l := newLab(t, 3, 2, cfg)
	l.connect(t, 0)
	// Presenter a walks away without releasing; no frames flow (no
	// animation), so the session idles out.
	start := l.k.Now()
	l.k.RunUntil(start + 2*sim.Minute)
	if l.projector.Projection.Held() {
		t.Fatal("forgotten session not reclaimed")
	}
	if l.projector.Projecting() {
		t.Fatal("stream survived reclamation")
	}
	// The next presenter can now grab.
	bob := l.presenters[1]
	if err := bob.StartVNC(800, 600, rfb.EncRLE); err != nil {
		t.Fatal(err)
	}
	discErr := errors.New("pending")
	bob.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("bob discover: %v", discErr)
	}
	var grabErr error = errors.New("pending")
	bob.GrabProjection(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if grabErr != nil {
		t.Fatalf("bob grab after reclamation: %v", grabErr)
	}
}

func TestActiveProjectionNotReclaimed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleLimit = 10 * sim.Second
	l := newLab(t, 4, 1, cfg)
	l.connect(t, 0)
	anim, _ := rfb.NewAnimator(l.presenters[0].VNC.Framebuffer(), 0.01)
	l.k.Ticker(sim.Second, "anim", anim.Step)
	l.k.RunUntil(l.k.Now() + 2*sim.Minute)
	if !l.projector.Projection.Held() {
		t.Fatal("active projection was reclaimed — frames should count as activity")
	}
}

func TestControlCommands(t *testing.T) {
	l := newLab(t, 5, 1, DefaultConfig())
	l.connect(t, 0)
	pr := l.presenters[0]
	if l.projector.Power() {
		t.Fatal("projector starts off")
	}
	var cmdErr error = errors.New("pending")
	pr.Command(CmdPowerToggle, func(err error) { cmdErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	if !l.projector.Power() {
		t.Fatal("power toggle ignored")
	}
	before := l.projector.Brightness()
	pr.Command(CmdBrightnessUp, nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if l.projector.Brightness() != before+1 {
		t.Fatal("brightness not raised")
	}
	if l.projector.CommandsServed != 2 {
		t.Fatalf("commands served = %d", l.projector.CommandsServed)
	}
}

func TestProxyRejectsInvalidCommandLocally(t *testing.T) {
	l := newLab(t, 6, 1, DefaultConfig())
	l.connect(t, 0)
	pr := l.presenters[0]
	if pr.proxy == nil {
		t.Fatal("proxy not downloaded during discovery")
	}
	callsBefore := pr.node.Network().CallsStarted
	var cmdErr error
	pr.Command(99, func(err error) { cmdErr = err })
	// No network wait needed: rejection is local and synchronous.
	if !errors.Is(cmdErr, ErrDenied) {
		t.Fatalf("invalid command err = %v", cmdErr)
	}
	if pr.node.Network().CallsStarted != callsBefore {
		t.Fatal("proxy validation still burned a network call")
	}
	if pr.RoundTripsSaved != 1 {
		t.Fatalf("round trips saved = %d", pr.RoundTripsSaved)
	}
}

func TestCommandWithoutControlSessionDenied(t *testing.T) {
	l := newLab(t, 7, 2, DefaultConfig())
	l.connect(t, 0) // presenter a holds control
	bob := l.presenters[1]
	discErr := errors.New("pending")
	bob.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("bob discover: %v", discErr)
	}
	var cmdErr error
	bob.Command(CmdPowerToggle, func(err error) { cmdErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if !errors.Is(cmdErr, ErrDenied) {
		t.Fatalf("uncontrolled command err = %v", cmdErr)
	}
}

func TestGrabWithoutVNCFailsFast(t *testing.T) {
	l := newLab(t, 8, 1, DefaultConfig())
	pr := l.presenters[0]
	discErr := errors.New("pending")
	pr.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("discover: %v", discErr)
	}
	var grabErr error
	pr.GrabProjection(func(err error) { grabErr = err })
	if grabErr == nil {
		t.Fatal("grab without VNC server should fail — the paper's forgotten precondition")
	}
}

func TestReleaseAndStatus(t *testing.T) {
	l := newLab(t, 9, 1, DefaultConfig())
	l.connect(t, 0)
	pr := l.presenters[0]
	var projecting bool
	var projOwner string
	pr.Status(func(p bool, po, co string, err error) { projecting, projOwner = p, po })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if !projecting || projOwner != "a" {
		t.Fatalf("status: projecting=%v owner=%s", projecting, projOwner)
	}
	var relErr error = errors.New("pending")
	pr.ReleaseProjection(func(err error) { relErr = err })
	pr.ReleaseControl(nil)
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if relErr != nil {
		t.Fatal(relErr)
	}
	if l.projector.Projecting() || l.projector.Projection.Held() {
		t.Fatal("release did not stop projection")
	}
}

func TestCrashCleansLookupViaLeases(t *testing.T) {
	l := newLab(t, 10, 1, DefaultConfig())
	if l.lookup.Count() != 2 {
		t.Fatalf("registrations = %d, want 2", l.lookup.Count())
	}
	l.projector.Crash()
	l.k.RunUntil(l.k.Now() + sim.Minute)
	if l.lookup.Count() != 0 {
		t.Fatalf("lookup still lists %d services after crash", l.lookup.Count())
	}
}

func TestAdminOnlyPolicyRequiresIntervention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleLimit = 10 * sim.Second
	l := newLab(t, 11, 1, cfg)
	l.projector.Projection.Policy = session.AdminOnly
	l.projector.Control.Policy = session.AdminOnly
	l.connect(t, 0)
	l.k.RunUntil(l.k.Now() + 10*sim.Minute)
	if !l.projector.Projection.Held() {
		t.Fatal("AdminOnly policy reclaimed by itself")
	}
	if err := l.projector.Projection.ForceRelease(); err != nil {
		t.Fatal(err)
	}
	if l.projector.Projection.Held() {
		t.Fatal("force release failed")
	}
}

func TestDiscoverWithNoProjector(t *testing.T) {
	k := sim.New(12)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 40, 20)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	lkNode := nw.NewNode("lookup", m.AddStation(med.NewRadio("lk", geo.Pt(20, 10), 6, 15)))
	discovery.NewLookup(lkNode).Start()
	node := nw.NewNode("solo", m.AddStation(med.NewRadio("solo", geo.Pt(5, 10), 6, 15)))
	pr := NewPresenter("solo", node, discovery.NewAgent(node))
	k.RunUntil(sim.Second)
	var discErr error
	pr.Discover(func(err error) { discErr = err })
	k.RunUntil(3 * sim.Second)
	if !errors.Is(discErr, ErrNoProjector) {
		t.Fatalf("err = %v, want ErrNoProjector", discErr)
	}
}

func TestGrabBothAtomic(t *testing.T) {
	l := newLab(t, 13, 2, DefaultConfig())
	alice, bob := l.presenters[0], l.presenters[1]
	for _, pr := range []*Presenter{alice, bob} {
		if err := pr.StartVNC(800, 600, rfb.EncRLE); err != nil {
			t.Fatal(err)
		}
		discErr := errors.New("pending")
		pr.Discover(func(err error) { discErr = err })
		l.k.RunUntil(l.k.Now() + 2*sim.Second)
		if discErr != nil {
			t.Fatalf("discover: %v", discErr)
		}
	}
	// Both fire grab-both at the same instant; exactly one must win both
	// services and the other must hold neither.
	var aliceErr, bobErr error = errors.New("pending"), errors.New("pending")
	alice.GrabBoth(func(err error) { aliceErr = err })
	bob.GrabBoth(func(err error) { bobErr = err })
	l.k.RunUntil(l.k.Now() + 3*sim.Second)
	winners := 0
	if aliceErr == nil {
		winners++
	}
	if bobErr == nil {
		winners++
	}
	if winners != 1 {
		t.Fatalf("winners = %d (alice=%v bob=%v)", winners, aliceErr, bobErr)
	}
	projOwner := l.projector.Projection.Owner()
	ctrlOwner := l.projector.Control.Owner()
	if projOwner != ctrlOwner || projOwner == "" {
		t.Fatalf("split ownership: projection=%q control=%q", projOwner, ctrlOwner)
	}
	if !l.projector.Projecting() {
		t.Fatal("winner's stream not started")
	}
	// The winner releases both in one call; the loser can then win.
	winner := alice
	loser := bob
	if bobErr == nil {
		winner, loser = bob, alice
	}
	relErr := errors.New("pending")
	winner.ReleaseBoth(func(err error) { relErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if relErr != nil {
		t.Fatalf("release-both: %v", relErr)
	}
	if l.projector.Projection.Held() || l.projector.Control.Held() {
		t.Fatal("release-both left a session held")
	}
	grabErr := errors.New("pending")
	loser.GrabBoth(func(err error) { grabErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if grabErr != nil {
		t.Fatalf("loser grab after release: %v", grabErr)
	}
}

func TestReleaseBothByNonHolderDenied(t *testing.T) {
	l := newLab(t, 14, 2, DefaultConfig())
	l.connect(t, 0)
	bob := l.presenters[1]
	discErr := errors.New("pending")
	bob.Discover(func(err error) { discErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if discErr != nil {
		t.Fatalf("discover: %v", discErr)
	}
	relErr := errors.New("pending")
	bob.ReleaseBoth(func(err error) { relErr = err })
	l.k.RunUntil(l.k.Now() + 2*sim.Second)
	if !errors.Is(relErr, ErrDenied) {
		t.Fatalf("non-holder release-both err = %v", relErr)
	}
	if l.projector.Projection.Owner() != "a" {
		t.Fatal("non-holder release disturbed the session")
	}
}
