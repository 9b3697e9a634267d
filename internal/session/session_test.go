package session

import (
	"errors"
	"strings"
	"testing"

	"aroma/internal/sim"
)

func TestGrabReleaseBasics(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "projection")
	if m.Held() || m.Owner() != "" {
		t.Fatal("fresh manager should be free")
	}
	if err := m.Grab("alice"); err != nil {
		t.Fatal(err)
	}
	if !m.Held() || m.Owner() != "alice" {
		t.Fatal("grab did not take")
	}
	if err := m.Release("alice"); err != nil {
		t.Fatal(err)
	}
	if m.Held() {
		t.Fatal("release did not free")
	}
	if m.Grabs != 1 || m.Releases != 1 {
		t.Fatalf("stats: grabs=%d releases=%d", m.Grabs, m.Releases)
	}
}

func TestHijackRejected(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "projection")
	m.Grab("alice")
	err := m.Grab("bob")
	if !errors.Is(err, ErrHeld) {
		t.Fatalf("err = %v, want ErrHeld", err)
	}
	if m.Owner() != "alice" {
		t.Fatal("hijack succeeded")
	}
	if m.HijacksRejected != 1 {
		t.Fatalf("hijacks = %d", m.HijacksRejected)
	}
}

func TestRegrabIsIdempotentTouch(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.Grab("alice")
	k.RunUntil(sim.Minute)
	if err := m.Grab("alice"); err != nil {
		t.Fatal(err)
	}
	if m.Grabs != 1 {
		t.Fatalf("grabs = %d, want 1", m.Grabs)
	}
	if m.IdleFor() != 0 {
		t.Fatalf("regrab did not touch: idle=%v", m.IdleFor())
	}
}

func TestEmptyOwnerRejected(t *testing.T) {
	m := NewManager(sim.New(1), "p")
	if err := m.Grab(""); err == nil {
		t.Fatal("empty owner accepted")
	}
}

func TestWrongOwnerOperations(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	if err := m.Release("alice"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("release free: %v", err)
	}
	if err := m.Touch("alice"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("touch free: %v", err)
	}
	m.Grab("alice")
	if err := m.Release("bob"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("release wrong owner: %v", err)
	}
	if err := m.Touch("bob"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("touch wrong owner: %v", err)
	}
}

func TestIdleReclamation(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.IdleLimit = 30 * sim.Second
	var endedWith EndReason = -1
	var endedOwner string
	m.OnEnd = func(owner string, r EndReason) { endedOwner, endedWith = owner, r }
	m.Grab("alice")
	k.RunUntil(29 * sim.Second)
	if !m.Held() {
		t.Fatal("reclaimed too early")
	}
	k.RunUntil(31 * sim.Second)
	if m.Held() {
		t.Fatal("forgotten session not reclaimed")
	}
	if endedWith != Reclaimed || endedOwner != "alice" {
		t.Fatalf("end = %v/%s", endedWith, endedOwner)
	}
	if m.Reclamations != 1 {
		t.Fatalf("reclamations = %d", m.Reclamations)
	}
}

func TestTouchDefersReclamation(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.IdleLimit = 30 * sim.Second
	m.Grab("alice")
	for i := 1; i <= 10; i++ {
		k.RunUntil(sim.Time(i) * 20 * sim.Second)
		if !m.Held() {
			t.Fatalf("session reclaimed despite activity at %v", k.Now())
		}
		m.Touch("alice")
	}
	k.RunUntil(k.Now() + sim.Minute)
	if m.Held() {
		t.Fatal("session survived after activity stopped")
	}
}

func TestAdminOnlyPolicyNeverReclaims(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.Policy = AdminOnly
	m.IdleLimit = sim.Second
	m.Grab("alice")
	k.RunUntil(sim.Hour)
	if !m.Held() {
		t.Fatal("AdminOnly policy reclaimed")
	}
	if err := m.ForceRelease(); err != nil {
		t.Fatal(err)
	}
	if m.Held() || m.ForcedReleases != 1 {
		t.Fatal("force release failed")
	}
	if err := m.ForceRelease(); !errors.Is(err, ErrNotHeld) {
		t.Fatal("double force release should fail")
	}
}

func TestWaitForHandoff(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.Grab("alice")
	granted := false
	m.WaitFor("bob", func() { granted = true })
	if m.QueueLen() != 1 {
		t.Fatalf("queue = %d", m.QueueLen())
	}
	m.Release("alice")
	k.RunUntil(sim.Second)
	if !granted || m.Owner() != "bob" {
		t.Fatalf("handoff failed: granted=%v owner=%s", granted, m.Owner())
	}
}

func TestWaitForFreeSessionGrantsImmediately(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	granted := false
	m.WaitFor("bob", func() { granted = true })
	k.RunUntil(sim.Second)
	if !granted || m.Owner() != "bob" {
		t.Fatal("immediate grant failed")
	}
}

func TestWaitersFIFO(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.IdleLimit = 10 * sim.Second
	m.Grab("alice")
	var order []string
	for _, who := range []string{"bob", "carol"} {
		who := who
		m.WaitFor(who, func() {
			order = append(order, who)
			m.Release(who)
		})
	}
	m.Release("alice")
	for k.Step() {
	}
	if len(order) != 2 || order[0] != "bob" || order[1] != "carol" {
		t.Fatalf("order = %v", order)
	}
}

func TestReclamationHandsOffToWaiter(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	m.IdleLimit = 30 * sim.Second
	m.Grab("alice") // alice walks away
	granted := sim.Time(-1)
	m.WaitFor("bob", func() { granted = k.Now() })
	k.RunUntil(35 * sim.Second)
	if granted < 0 {
		t.Fatal("waiter not granted after reclamation")
	}
	if granted != 30*sim.Second {
		t.Fatalf("granted at %v, want 30s", granted)
	}
	if m.Owner() != "bob" {
		t.Fatalf("owner = %s", m.Owner())
	}
	// Bob never acts either: the same policy reclaims his session too.
	k.RunUntil(sim.Minute + sim.Second)
	if m.Held() {
		t.Fatal("idle waiter session not reclaimed in turn")
	}
}

func TestGrabAllAtomic(t *testing.T) {
	k := sim.New(1)
	proj := NewManager(k, "projection")
	ctrl := NewManager(k, "control")
	if err := GrabAll("alice", proj, ctrl); err != nil {
		t.Fatal(err)
	}
	if proj.Owner() != "alice" || ctrl.Owner() != "alice" {
		t.Fatal("GrabAll incomplete")
	}
	// Bob tries the opposite order; must fail cleanly, leaving alice's
	// sessions intact and bob holding nothing.
	if err := GrabAll("bob", ctrl, proj); err == nil {
		t.Fatal("GrabAll should fail while held")
	}
	if proj.Owner() != "alice" || ctrl.Owner() != "alice" {
		t.Fatal("failed GrabAll disturbed holder")
	}
	if n := ReleaseAll("alice", proj, ctrl); n != 2 {
		t.Fatalf("released %d", n)
	}
	if err := GrabAll("bob", ctrl, proj); err != nil {
		t.Fatalf("bob grab after release: %v", err)
	}
}

func TestGrabAllRollsBackPartial(t *testing.T) {
	k := sim.New(1)
	a := NewManager(k, "a")
	b := NewManager(k, "b")
	c := NewManager(k, "c")
	b.Grab("mallory") // the middle lock (canonical order a,b,c) is taken
	if err := GrabAll("alice", c, a, b); err == nil {
		t.Fatal("GrabAll should fail")
	}
	if a.Held() || c.Held() {
		t.Fatal("partial acquisition not rolled back")
	}
	if b.Owner() != "mallory" {
		t.Fatal("holder disturbed")
	}
}

func TestReleaseAllSkipsOthers(t *testing.T) {
	k := sim.New(1)
	a := NewManager(k, "a")
	b := NewManager(k, "b")
	a.Grab("alice")
	b.Grab("bob")
	if n := ReleaseAll("alice", a, b); n != 1 {
		t.Fatalf("released %d, want 1", n)
	}
	if b.Owner() != "bob" {
		t.Fatal("ReleaseAll released someone else's session")
	}
}

func TestHeldForAndIdleFor(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	if m.HeldFor() != 0 || m.IdleFor() != 0 {
		t.Fatal("free session durations should be zero")
	}
	m.Grab("alice")
	k.RunUntil(40 * sim.Second)
	m.Touch("alice")
	k.RunUntil(70 * sim.Second)
	if m.HeldFor() != 70*sim.Second {
		t.Fatalf("HeldFor = %v", m.HeldFor())
	}
	if m.IdleFor() != 30*sim.Second {
		t.Fatalf("IdleFor = %v", m.IdleFor())
	}
}

func TestEndReasonStrings(t *testing.T) {
	for _, r := range []EndReason{Released, Reclaimed, Forced} {
		if r.String() == "" || strings.HasPrefix(r.String(), "EndReason") {
			t.Fatalf("bad name for %d", int(r))
		}
	}
	if !strings.Contains(EndReason(9).String(), "9") {
		t.Fatal("unknown reason should include number")
	}
}

func TestManagerString(t *testing.T) {
	k := sim.New(1)
	m := NewManager(k, "p")
	if !strings.Contains(m.String(), "free") {
		t.Fatal("free state missing")
	}
	m.Grab("alice")
	if !strings.Contains(m.String(), "alice") {
		t.Fatal("holder missing")
	}
}
