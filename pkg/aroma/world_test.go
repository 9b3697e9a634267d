package aroma

import (
	"testing"

	"aroma/internal/discovery"
	"aroma/internal/fault"
	"aroma/internal/netsim"
	"aroma/internal/sim"
	"aroma/internal/trace"
)

func TestNewWorldDefaults(t *testing.T) {
	w := NewWorld()
	if w.Seed() != 1 {
		t.Errorf("default seed = %d, want 1", w.Seed())
	}
	if w.Name() != "world" {
		t.Errorf("default name = %q, want world", w.Name())
	}
	b := w.plan.Bounds
	if b.Width() != 30 || b.Height() != 20 {
		t.Errorf("default arena = %.0fx%.0f, want 30x20", b.Width(), b.Height())
	}
	if w.Kernel() == nil || w.Env() == nil || w.Medium() == nil ||
		w.MAC() == nil || w.Network() == nil || w.Log() == nil {
		t.Fatal("substrates not wired")
	}
	if w.Now() != 0 {
		t.Errorf("fresh world Now = %v, want 0", w.Now())
	}
}

func TestNewWorldOptions(t *testing.T) {
	w := NewWorld(WithName("lab"), WithSeed(99), WithArena(100, 50))
	if w.Seed() != 99 {
		t.Errorf("seed = %d, want 99", w.Seed())
	}
	if w.Name() != "lab" {
		t.Errorf("name = %q, want lab", w.Name())
	}
	b := w.plan.Bounds
	if b.Width() != 100 || b.Height() != 50 {
		t.Errorf("arena = %.0fx%.0f, want 100x50", b.Width(), b.Height())
	}
	if w.Analyze() == nil {
		t.Fatal("Analyze returned nil report")
	}
	if got := w.Analyze().SystemName; got != "lab" {
		t.Errorf("report system name = %q, want lab", got)
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		w := NewWorld(WithSeed(5))
		w.AddLookup("lookup", Pt(15, 10))
		d := w.AddDevice("client", Pt(5, 5))
		d.Agent() // join the discovery group
		w.RunFor(30 * Second)
		return w.Kernel().Steps(), w.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", s1, t1, s2, t2)
	}
	if s1 == 0 {
		t.Error("no events executed; lookup should have been announcing")
	}
}

func TestAddDeviceAutoWiring(t *testing.T) {
	w := NewWorld()
	d := w.AddDevice("projector", Pt(25, 10), WithSpec(AdapterSpec()),
		WithAppState(map[string]string{"power": "off"}))
	if d.Radio() == nil || d.Station() == nil || d.Node() == nil {
		t.Fatal("online device not fully wired")
	}
	if d.Node().Addr() != d.Station().Addr() {
		t.Error("node not wired to the device's station")
	}
	if d.Radio().Pos != Pt(25, 10) {
		t.Errorf("radio pos = %v", d.Radio().Pos)
	}
	if d.Entity().AppState["power"] != "off" {
		t.Error("WithAppState did not set app state")
	}

	d.SetPos(Pt(1, 1))
	if d.Radio().Pos != Pt(1, 1) || d.Entity().Pos != Pt(1, 1) {
		t.Error("SetPos did not keep radio and entity in sync")
	}
}

func TestAddDeviceOffline(t *testing.T) {
	w := NewWorld()
	d := w.AddDevice("kettle", Pt(2, 2), Offline())
	if d.Radio() != nil || d.Station() != nil || d.Node() != nil {
		t.Fatal("offline device should have no substrate wiring")
	}
	defer func() {
		if recover() == nil {
			t.Error("Agent() on offline device should panic")
		}
	}()
	d.Agent()
}

func TestAddDeviceDuplicatePanics(t *testing.T) {
	w := NewWorld()
	w.AddDevice("x", Pt(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddDevice should panic")
		}
	}()
	w.AddDevice("x", Pt(1, 1))
}

func TestAddUserOptions(t *testing.T) {
	w := NewWorld()
	u := w.AddUser("alice", Pt(5, 10),
		WithFaculties(Researcher()),
		WithGoal("present", 3, "remote-projection"),
		Believing("projecting", "true"),
		Operating("projector"),
		UsingVoice(),
	)
	if u.U().Name != "alice" || u.Pos() != Pt(5, 10) {
		t.Errorf("user basics wrong: %q %v", u.U().Name, u.Pos())
	}
	if len(u.U().Goals) != 1 || u.U().Goals[0].Importance != 3 {
		t.Errorf("goals = %+v", u.U().Goals)
	}
	if v, ok := u.U().Mental.Belief("projecting"); !ok || v != "true" {
		t.Error("belief not seeded")
	}
	if !u.entity.UsesVoice || len(u.entity.Operates) != 1 {
		t.Errorf("entity = %+v", u.entity)
	}
	// Default faculties are the casual audience.
	d := w.AddUser("bob", Pt(0, 0))
	casual := Casual()
	if d.U().Faculties.TechSkill != casual.TechSkill {
		t.Errorf("default faculties = %+v, want casual", d.U().Faculties)
	}
}

func TestAnalyzeSeesEntitiesAndLinks(t *testing.T) {
	w := NewWorld(WithName("sys"))
	w.AddDevice("a", Pt(1, 1))
	w.AddDevice("b", Pt(5, 5))
	w.AddUser("u", Pt(1, 2), Operating("a"))
	w.Link("a", "b")
	sys := w.System()
	if len(sys.Devices) != 2 || len(sys.Users) != 1 || len(sys.Links) != 1 {
		t.Fatalf("system = %d devices, %d users, %d links",
			len(sys.Devices), len(sys.Users), len(sys.Links))
	}
	report := w.Analyze()
	// The a<->b link at 5.7 m must yield an environment-layer finding.
	if got := len(report.ByLayer(Environment)); got == 0 {
		t.Error("no environment-layer findings for declared link")
	}
}

func TestAddLookupRegistryRoundTrip(t *testing.T) {
	w := NewWorld()
	lk := w.AddLookup("lookup", Pt(15, 10))
	client := w.AddDevice("client", Pt(5, 5))

	registered := false
	client.Agent().OnLookupFound = func(netsim.Addr) {
		client.Agent().Register(discovery.Item{Name: "svc-1", Type: "printer"},
			20*Second, func(r *discovery.Registration, err error) {
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				registered = true
			})
	}
	w.RunFor(10 * Second)
	if !registered {
		t.Fatal("client never registered with the lookup")
	}
	if lk.Count() != 1 {
		t.Errorf("lookup count = %d, want 1", lk.Count())
	}

	found := 0
	client.Agent().Lookup(discovery.Template{Type: "printer"}, func(items []discovery.Item, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		found = len(items)
	})
	w.RunFor(5 * Second)
	if found != 1 {
		t.Errorf("found %d items, want 1", found)
	}
}

// Trace events recorded on the world log must fold into Analyze reports.
func TestAnalyzeFoldsTrace(t *testing.T) {
	w := NewWorld()
	w.Log().Violation(trace.Abstract, "projector", "hijack attempt")
	report := w.Analyze()
	if len(report.Violations()) != 1 {
		t.Errorf("violations = %d, want 1 (trace fold)", len(report.Violations()))
	}
}

// TestApplyFaultsAfterRunArmsNothing pins that a fault plan arms only
// on a world that has not run: once a step was taken or virtual time
// elapsed, ApplyFaults errors and leaves the world, its event queue and
// its telemetry as they were.
func TestApplyFaultsAfterRunArmsNothing(t *testing.T) {
	plan, err := fault.Parse("jam:at=2s,for=1s,loss=10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(w *World)
	}{
		{"a step at t=0", func(w *World) {
			w.Schedule(0, "test.tick", func() {})
			w.RunUntil(0)
		}},
		{"idle time", func(w *World) { w.RunUntil(sim.Second) }},
	} {
		w := NewWorld()
		reg := w.EnableTelemetry()
		tc.run(w)
		pending, insts := w.kernel.Pending(), len(reg.Snapshot(0).Instruments)
		if err := w.ApplyFaults(plan); err == nil {
			t.Errorf("%s: ApplyFaults armed a plan on a world that has run", tc.name)
		}
		if w.HasFaults() || w.FaultPlan() != "" || w.kernel.Pending() != pending ||
			len(reg.Snapshot(0).Instruments) != insts {
			t.Errorf("%s: a refused plan changed the world: faults %v, %d pending (was %d), %d instruments (was %d)",
				tc.name, w.HasFaults(), w.kernel.Pending(), pending, len(reg.Snapshot(0).Instruments), insts)
		}
	}
	w := NewWorld()
	w.EnableTelemetry()
	if err := w.ApplyFaults(plan); err != nil || !w.HasFaults() {
		t.Fatalf("a world that has not run: ApplyFaults = %v, armed %v", err, w.HasFaults())
	}
}
