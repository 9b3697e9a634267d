package fault

import (
	"strings"
	"testing"

	"aroma/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"crash:at=10s,for=5s",
		"crash:at=10s,for=5s,every=20s,n=3",
		"jam:at=15s,for=10s,loss=30",
		"radio:at=1s,for=500ms,target=rover-001",
		"partition:at=45s,for=15s",
		"outage:at=30s,for=10s",
		"crash:at=10s,for=5s;jam:at=15s,for=10s,loss=27.5;outage:at=30s,for=10s",
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", src, p.String(), err)
		}
		if p.String() != again.String() {
			t.Errorf("round trip diverged: %q -> %q -> %q", src, p.String(), again.String())
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || !p.Empty() {
		t.Fatalf("Parse(blank) = %v, %v; want empty plan", p, err)
	}
	if p.String() != "" {
		t.Fatalf("empty plan renders %q", p.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"flood:at=1s,for=1s":              "unknown kind",
		"crash:for=1s":                    "at > 0",
		"crash:at=1s":                     "for > 0",
		"crash:at=1s,for=1s,n=3":          "no every",
		"crash:at=1s,for=1s,bogus=2":      "unknown key",
		"jam:at=1s,for=1s,target=nope":    "cannot take a target",
		"crash:at=banana,for=1s":          "at=",
		"jam:at=1s,for=1s,loss=-3":        "negative loss",
		"partition:at=1s,for=1s,target=x": "cannot take a target",
	}
	for src, want := range cases {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) err = %v, want substring %q", src, err, want)
		}
	}
}

// TestInjectorDeterminism proves the whole point of the dedicated RNG
// stream: two injectors with the same seed fire identical schedules,
// pick identical victims, and consume identical draw counts.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (picks []int, st State) {
		k := sim.New(42)
		in := NewInjector(k, MustParse("crash:at=1s,for=500ms,every=1s,n=5;jam:at=2s,for=1s"), 99)
		in.Arm(Hooks{
			Crash: func(target string, downFor sim.Time) { picks = append(picks, in.Intn(10)) },
			Jam:   func(lossDB float64, dur sim.Time) { picks = append(picks, int(lossDB)) },
		})
		k.RunUntil(10 * sim.Second)
		return picks, in.ExportState()
	}
	p1, s1 := run()
	p2, s2 := run()
	if len(p1) != 6 {
		t.Fatalf("got %d hook firings, want 6", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("victim picks diverged at %d: %v vs %v", i, p1, p2)
		}
	}
	if s1 != s2 {
		t.Fatalf("states diverged:\n%+v\n%+v", s1, s2)
	}
	if s1.Crashes != 5 || s1.Jams != 1 || s1.Draws == 0 {
		t.Fatalf("unexpected state %+v", s1)
	}
}

// TestArmSkipsPast proves late arming drops already-passed occurrences
// instead of firing them at the wrong time.
func TestArmSkipsPast(t *testing.T) {
	k := sim.New(1)
	k.RunUntil(5 * sim.Second)
	in := NewInjector(k, MustParse("crash:at=1s,for=1s,every=3s,n=3"), 7)
	fired := 0
	in.Arm(Hooks{Crash: func(string, sim.Time) { fired++ }})
	k.RunUntil(20 * sim.Second)
	if fired != 1 { // at=1s and at=4s are past; at=7s fires
		t.Fatalf("fired %d occurrences, want 1", fired)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	k := sim.New(1)
	in := NewInjector(k, Plan{}, 7)
	in.Arm(Hooks{})
	k.RunUntil(sim.Second)
	if in.Injected() != 0 || in.Draws() != 0 {
		t.Fatalf("zero plan injected %d with %d draws", in.Injected(), in.Draws())
	}
	if (in.ExportState() != State{Seed: 7}) {
		t.Fatalf("zero-plan state not minimal: %+v", in.ExportState())
	}
}
