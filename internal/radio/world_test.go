package radio_test

import (
	"testing"

	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios"
)

// TestMobileDenseMatchesOracle runs a whole mobiledense world — 80
// random-waypoint radios at 5 m/s on a 300 m floor for 30 s, with the
// scenario's -100 dBm cutoff and 50 m cells — in 50 ms slices and
// requires, after every slice, the medium's indexed hearers to match
// the brute-force oracle and every radio's carrier sense to match the
// dBm predicate. Checking must be a pure observer: the final digest
// equals that of an unchecked run.
func TestMobileDenseMatchesOracle(t *testing.T) {
	cfg := scenario.Config{
		Seed:    7,
		Horizon: 30 * sim.Second,
		Params:  map[string]string{"radios": "80", "side": "300", "speed": "5"},
	}
	build := func() *scenario.Built {
		b, err := scenario.Build("mobiledense", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	checked := build()
	m := checked.World.Medium()
	for at := sim.Time(0); at < checked.Horizon; {
		at = min(at+50*sim.Millisecond, checked.Horizon)
		checked.World.RunUntil(at)
		if err := radio.CheckHearers(m); err != nil {
			t.Fatalf("at %s: %v", at, err)
		}
		if err := radio.CheckBusy(m); err != nil {
			t.Fatalf("at %s: %v", at, err)
		}
	}
	if m.Sent == 0 || m.Delivered == 0 {
		t.Fatalf("workload carried no traffic: %d sent, %d delivered", m.Sent, m.Delivered)
	}

	plain := build()
	plain.World.RunUntil(plain.Horizon)
	if got, want := checked.World.Digest(), plain.World.Digest(); got != want {
		t.Errorf("checked digest %s != unchecked digest %s", got, want)
	}
}
