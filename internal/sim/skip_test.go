package sim

import (
	"reflect"
	"testing"
)

// countdown is a backoff-like chain: each of its events counts one slot
// down, skips what it can of the rest and schedules the next one.
type countdown struct {
	k              *Kernel
	slot           Time
	left           int
	fired, skipped int
	firedAt        []Time // when its events fired
}

func countdownSlot(a any) {
	c := a.(*countdown)
	c.fired++
	c.firedAt = append(c.firedAt, c.k.Now())
	c.left--
	n := c.k.Skip(c.slot, c.left, maxTime)
	c.skipped += n
	c.left -= n
	if c.left > 0 {
		c.k.ScheduleFn(c.slot, "slot", countdownSlot, c)
	}
}

func startCountdown(k *Kernel, slot Time, slots int) *countdown {
	c := &countdown{k: k, slot: slot, left: slots}
	k.ScheduleFn(slot, "slot", countdownSlot, c)
	return c
}

// TestStepNeverSkips drives one countdown with Step and one with
// RunUntil: under Step every slot is an event of its own, under RunUntil
// all but the first are skipped, and both end with the same clock,
// Steps and Seq. Step skips nothing even after a RunUntil that a
// panicking callback left early.
func TestStepNeverSkips(t *testing.T) {
	stepped := New(1)
	cs := startCountdown(stepped, 20, 100)
	for stepped.Step() {
	}
	if cs.fired != 100 || cs.skipped != 0 {
		t.Fatalf("under Step: %d fired, %d skipped; want 100 and 0", cs.fired, cs.skipped)
	}

	run := New(1)
	cr := startCountdown(run, 20, 100)
	run.RunUntil(2000)
	if cr.fired != 1 || cr.skipped != 99 {
		t.Fatalf("under RunUntil: %d fired, %d skipped; want 1 and 99", cr.fired, cr.skipped)
	}
	if a, b := stepped.ExportState(), run.ExportState(); !reflect.DeepEqual(a, b) {
		t.Fatalf("stepped state %+v, run state %+v", a, b)
	}

	// A callback that panics leaves RunUntil early, with its deadline
	// still ahead. A callback fired by Step after that skips nothing.
	run.Schedule(20, "panic", func() { panic("model bug") })
	func() {
		defer func() { _ = recover() }()
		run.RunUntil(run.Now() + Second)
	}()
	c := startCountdown(run, 20, 3)
	for run.Step() {
	}
	if c.fired != 3 || c.skipped != 0 {
		t.Fatalf("Step after an interrupted RunUntil: %d fired, %d skipped; want 3 and 0", c.fired, c.skipped)
	}
}

// TestSkipStopsBeforeSampler puts a sampler instant between two slots
// of a countdown, and then on a slot: skipping stops short of it, so
// the sampler observes the same clock, Steps and slot count as when
// every slot fires, and a slot due at the sample instant fires as an
// event.
func TestSkipStopsBeforeSampler(t *testing.T) {
	type obs struct {
		at, now    Time
		steps      uint64
		slotsSoFar int
	}
	for _, tc := range []struct {
		period  Time
		want    []obs
		firedAt []Time // the countdown's events under RunUntil
	}{
		{1010, []obs{{1010, 1010, 50, 50}}, []Time{20, 1020}},
		{1000, []obs{{1000, 1000, 50, 50}, {2000, 2000, 100, 100}}, []Time{20, 1000, 1020, 2000}},
	} {
		observe := func(useRunUntil bool) ([]obs, *countdown) {
			k := New(1)
			c := startCountdown(k, 20, 100)
			var seen []obs
			k.AddSampler(tc.period, func(at Time) {
				seen = append(seen, obs{at, k.Now(), k.Steps(), c.fired + c.skipped})
			})
			if !useRunUntil {
				for k.Step() {
				}
			}
			k.RunUntil(2000) // after Step, only samplers are left to run
			return seen, c
		}
		stepped, _ := observe(false)
		skipped, c := observe(true)
		if !reflect.DeepEqual(stepped, tc.want) {
			t.Errorf("sampler every %d: stepped run observed %+v, want %+v", tc.period, stepped, tc.want)
		}
		if !reflect.DeepEqual(skipped, tc.want) {
			t.Errorf("sampler every %d: skipping run observed %+v, want %+v", tc.period, skipped, tc.want)
		}
		if !reflect.DeepEqual(c.firedAt, tc.firedAt) || c.fired+c.skipped != 100 {
			t.Errorf("sampler every %d: events fired at %v with %d skipped, want %v and %d",
				tc.period, c.firedAt, c.skipped, tc.firedAt, 100-len(tc.firedAt))
		}
	}
}
