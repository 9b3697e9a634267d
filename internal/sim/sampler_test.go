package sim

import (
	"reflect"
	"testing"
)

func TestSamplerFiresOnPeriodDuringRunUntil(t *testing.T) {
	k := New(1)
	var at []Time
	k.AddSampler(10, func(now Time) {
		at = append(at, now)
		if k.Now() != now {
			t.Fatalf("Now() = %v inside sampler at %v", k.Now(), now)
		}
	})
	k.RunUntil(35)
	want := []Time{10, 20, 30}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("sample times = %v, want %v", at, want)
	}
	if k.Now() != 35 {
		t.Fatalf("Now = %v, want 35", k.Now())
	}
	// The next window continues the cadence from where it left off.
	at = nil
	k.RunUntil(60)
	if want := []Time{40, 50, 60}; !reflect.DeepEqual(at, want) {
		t.Fatalf("second window sample times = %v, want %v", at, want)
	}
}

func TestSamplerSeesEventsUpToItsInstant(t *testing.T) {
	k := New(1)
	var n int
	var seen []int
	// Events at 5, 10, 15: the sampler at 10 must observe the first
	// two (an event at exactly the sample instant runs first), the
	// sampler at 20 all three.
	for _, d := range []Time{5, 10, 15} {
		k.Schedule(d, "ev", func() { n++ })
	}
	k.AddSampler(10, func(Time) { seen = append(seen, n) })
	k.RunUntil(20)
	if want := []int{2, 3}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("sampler saw %v, want %v", seen, want)
	}
}

func TestSamplerFiresBetweenDistantEvents(t *testing.T) {
	k := New(1)
	var ticks []Time
	k.AddSampler(10, func(at Time) { ticks = append(ticks, at) })
	fired := Time(0)
	k.Schedule(95, "late", func() { fired = k.Now() })
	k.RunUntil(100)
	want := []Time{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	if fired != 95 {
		t.Fatalf("event fired at %v, want 95", fired)
	}
}

func TestSamplerIsInvisibleToDeterminismInputs(t *testing.T) {
	run := func(sampled bool) (State, uint64, uint64, uint64) {
		k := New(42)
		if sampled {
			k.AddSampler(7, func(Time) {})
		}
		var tick func()
		tick = func() {
			k.Rand().Intn(10)
			if k.Now() < 90 {
				k.Schedule(9, "tick", tick)
			}
		}
		k.Schedule(9, "tick", tick)
		e := k.Schedule(50, "never", func() {})
		k.Schedule(20, "cancel", func() { k.Cancel(e) })
		k.RunUntil(100)
		return k.ExportState(), k.Steps(), k.Seq(), k.RandDraws()
	}
	sOff, stepsOff, seqOff, drawsOff := run(false)
	sOn, stepsOn, seqOn, drawsOn := run(true)
	if stepsOff != stepsOn || seqOff != seqOn || drawsOff != drawsOn {
		t.Fatalf("sampler perturbed counters: steps %d/%d seq %d/%d draws %d/%d",
			stepsOff, stepsOn, seqOff, seqOn, drawsOff, drawsOn)
	}
	if !reflect.DeepEqual(sOff, sOn) {
		t.Fatalf("sampler perturbed ExportState:\noff: %+v\non:  %+v", sOff, sOn)
	}
}

func TestSamplersTieBreakInRegistrationOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.AddSampler(10, func(Time) { order = append(order, 1) })
	k.AddSampler(5, func(Time) { order = append(order, 2) })
	k.RunUntil(10)
	// t=5: only sampler 2. t=10: both due; registration order.
	if want := []int{2, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestAddSamplerRejectsNonPositivePeriod(t *testing.T) {
	k := New(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("AddSampler(0) did not panic")
		}
	}()
	k.AddSampler(0, func(Time) {})
}

func TestKernelObservabilityAccessors(t *testing.T) {
	k := New(1)
	k.ScheduleFn(5, "a", func(any) {}, nil)
	e := k.Schedule(7, "b", func() {})
	if slots, free := k.PoolStats(); slots != 2 || free != 0 {
		t.Fatalf("pool stats = %d/%d, want 2/0", slots, free)
	}
	k.Cancel(e)
	k.Cancel(e) // stale: must not double-count
	if k.Cancels() != 1 {
		t.Fatalf("cancels = %d, want 1", k.Cancels())
	}
	if k.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", k.Seq())
	}
	for k.Step() {
	}
	if slots, free := k.PoolStats(); slots != 2 || free != 2 {
		t.Fatalf("post-run pool stats = %d/%d, want 2/2", slots, free)
	}
}

// TestPendingMatchesExportAfterCancelChurn pins the cheap pending count
// against the canonical export: after a run that cancels most of what
// it schedules, with a sampler observing throughout, Pending must equal
// the number of events ExportState lists. Lazily cancelled slots still
// parked in the heap must count in neither.
func TestPendingMatchesExportAfterCancelChurn(t *testing.T) {
	k := New(3)
	samples := 0
	k.AddSampler(7*Millisecond, func(Time) { samples++ })
	var handles []Event
	var churn func()
	churn = func() {
		rng := k.Rand()
		for i := 0; i < 4; i++ {
			handles = append(handles, k.Schedule(Time(1+rng.Intn(50))*Millisecond, "churn", func() {}))
		}
		// Cancel three of every four handles minted so far, stale ones
		// included: a stale cancel must be a no-op.
		for i := 0; i < len(handles); i += 4 {
			for j := i; j < i+3 && j < len(handles); j++ {
				k.Cancel(handles[j])
			}
		}
		if k.Now() < 500*Millisecond {
			k.Schedule(3*Millisecond, "churn", churn)
		}
	}
	k.Schedule(0, "churn", churn)
	k.RunUntil(400 * Millisecond)
	if k.Cancels() == 0 || samples == 0 {
		t.Fatalf("workload too quiet: cancels=%d samples=%d", k.Cancels(), samples)
	}
	if got, want := k.Pending(), len(k.ExportState().Pending); got != want {
		t.Fatalf("Pending() = %d, ExportState lists %d", got, want)
	}
	for k.Step() {
	}
	if got, want := k.Pending(), len(k.ExportState().Pending); got != 0 || want != 0 {
		t.Fatalf("drained kernel: Pending() = %d, ExportState lists %d", got, want)
	}
}
