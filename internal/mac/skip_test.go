package mac

import (
	"fmt"
	"reflect"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// skipRun is what one run of skipWorld leaves behind.
type skipRun struct {
	Kernel               sim.State
	MAC                  State
	Medium               radio.State
	GainHits, GainMisses uint64
	Backoffs             uint64
	Results              []string // each SendResult with the instant it arrived
}

// skipWorld runs three stations in range of each other and one far out
// of range, with unicast and broadcast traffic queued at staggered
// instants, for 1 s of virtual time: slices > 0 drives it through
// RunUntil in slices of that length, slices == 0 with Step alone.
func skipWorld(t *testing.T, slice sim.Time) skipRun {
	t.Helper()
	k := sim.New(5)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 10000, 100)))
	med := radio.NewMedium(k, e)
	m := New(med)
	var sta []*Station
	for i, x := range []float64{0, 5, 10, 5000} {
		sta = append(sta, m.AddStation(med.NewRadio(string(rune('a'+i)), geo.Pt(x, 0), 6, 15)))
	}
	var run skipRun
	done := func(r SendResult) {
		run.Results = append(run.Results, fmt.Sprintf("%s to %d: ok=%v retries=%d", k.Now(), r.Frame.Dst, r.OK, r.Retries))
	}
	for i := 0; i < 12; i++ {
		src, dst := sta[i%3], sta[(i+1)%4].Addr()
		if i%5 == 4 {
			dst = Broadcast
		}
		k.Schedule(sim.Time(i)*7*sim.Millisecond, "send", func() {
			_ = src.Send(dst, 4000+1000*i, nil, done)
		})
	}
	const horizon = sim.Second
	if slice > 0 {
		for at := sim.Time(0); at < horizon; {
			at = min(at+slice, horizon)
			k.RunUntil(at)
		}
	} else {
		for k.Step() {
		}
		if k.Now() > horizon {
			t.Fatalf("stepped run ended at %s, past the %s horizon", k.Now(), horizon)
		}
		k.RunUntil(horizon) // only moves the clock: the queue is empty
	}
	run.Kernel, run.MAC, run.Medium = k.ExportState(), m.ExportState(), med.ExportState()
	run.GainHits, run.GainMisses, run.Backoffs = med.GainHits, med.GainMisses, m.Backoffs
	return run
}

// TestSkippedBackoffMatchesStepped requires a world whose backoff slots
// are skipped under RunUntil to end exactly where the same world driven
// by Step, which skips nothing, ends: the same kernel, MAC and medium
// state, the same gain-memo counters, and every send resolved at the
// same instant with the same outcome. The RunUntil slices cut some
// countdowns short at their deadline.
func TestSkippedBackoffMatchesStepped(t *testing.T) {
	stepped := skipWorld(t, 0)
	if len(stepped.Results) != 12 || stepped.Backoffs == 0 {
		t.Fatalf("stepped run resolved %d of 12 sends after %d backoffs", len(stepped.Results), stepped.Backoffs)
	}
	for _, slice := range []sim.Time{sim.Second, 3 * sim.Millisecond, 130 * sim.Microsecond} {
		if got := skipWorld(t, slice); !reflect.DeepEqual(got, stepped) {
			t.Errorf("RunUntil in %s slices:\n%+v\nstepped:\n%+v", slice, got, stepped)
		}
	}
}
