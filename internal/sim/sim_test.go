package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.Schedule(3*Millisecond, "c", func() { got = append(got, 3) })
	k.Schedule(1*Millisecond, "a", func() { got = append(got, 1) })
	k.Schedule(2*Millisecond, "b", func() { got = append(got, 2) })
	for k.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3*Millisecond {
		t.Fatalf("Now = %v, want 3ms", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Millisecond, "tie", func() { got = append(got, i) })
	}
	for k.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	k := New(1)
	fired := false
	k.Schedule(-Second, "neg", func() { fired = true })
	for k.Step() {
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved to %v for clamped event", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	ev := k.Schedule(Millisecond, "x", func() { fired = true })
	if !k.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if k.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	for k.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireNoop(t *testing.T) {
	k := New(1)
	ev := k.Schedule(0, "x", func() {})
	for k.Step() {
	}
	if k.Cancel(ev) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New(1)
	n := k.RunUntil(5 * Second)
	if n != 0 {
		t.Fatalf("executed %d events on empty queue", n)
	}
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := New(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		d := Time(i) * Second
		k.Schedule(d, "tick", func() { fired = append(fired, k.Now()) })
	}
	k.RunUntil(4 * Second)
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want 4", len(fired))
	}
	if k.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", k.Pending())
	}
	for k.Step() {
	}
	if len(fired) != 10 {
		t.Fatalf("after Run fired %d, want 10", len(fired))
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(Millisecond, "rec", rec)
		}
	}
	k.Schedule(0, "seed", rec)
	for k.Step() {
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != 99*Millisecond {
		t.Fatalf("Now = %v, want 99ms", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := New(1)
	ticks := 0
	stop := k.Ticker(Second, "tick", func() { ticks++ })
	k.RunUntil(5 * Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	stop()
	for k.Step() {
	}
	if ticks != 5 {
		t.Fatalf("ticker fired after stop: %d", ticks)
	}
}

func TestTickerStopFromOutside(t *testing.T) {
	k := New(1)
	ticks := 0
	stop := k.Ticker(Second, "tick", func() { ticks++ })
	k.RunUntil(3500 * Millisecond)
	stop()
	k.RunUntil(10 * Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []float64 {
		k := New(seed)
		var out []float64
		for i := 0; i < 50; i++ {
			k.Schedule(Time(k.Rand().Intn(1000))*Millisecond, "r", func() {
				out = append(out, k.Rand().Float64())
			})
		}
		for k.Step() {
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// the insertion order of random delays.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := New(7)
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d)*Microsecond, "p", func() {
				fired = append(fired, k.Now())
			})
		}
		for k.Step() {
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the virtual clock equals the max scheduled delay after a full run.
func TestPropertyClockEqualsMaxDelay(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New(3)
		var max Time
		for _, d := range delays {
			dt := Time(d) * Microsecond
			if dt > max {
				max = dt
			}
			k.Schedule(dt, "p", func() {})
		}
		for k.Step() {
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New(1)
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97)*Microsecond, "b", func() {})
		}
		for k.Step() {
		}
	}
}
