package sim

import (
	"testing"
	"unsafe"
)

// TestRecordSize pins the pooled event slot at 64 bytes: one callback
// shape (a function and its argument) and no second callback field.
// The event queue's compares read two slots each, so a wider record
// costs every push and pop.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 64 {
		t.Fatalf("record is %d bytes, want 64", got)
	}
}

// TestCancelAfterFireOnRecycledSlot is the stale-handle core case: the
// handle of a fired event must stay inert even after its pool slot has
// been recycled for a new, still-pending event. A Cancel through the
// stale handle must not deschedule the new tenant.
func TestCancelAfterFireOnRecycledSlot(t *testing.T) {
	k := New(1)
	first := k.Schedule(Millisecond, "first", func() {})
	for k.Step() { // fires and releases the slot
	}
	secondFired := false
	second := k.Schedule(Millisecond, "second", func() { secondFired = true })
	if second.slot != first.slot {
		t.Fatalf("free list did not recycle the slot: first=%d second=%d", first.slot, second.slot)
	}
	if second.gen == first.gen {
		t.Fatal("recycled slot kept its generation; stale handles would alias")
	}
	if first.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if k.Cancel(first) {
		t.Fatal("Cancel through a stale handle descheduled the new tenant")
	}
	for k.Step() {
	}
	if !secondFired {
		t.Fatal("new tenant did not fire")
	}
}

// TestFireAfterCancelNoop: a lazily-cancelled event surfacing at the
// heap top must be skipped, and once its slot is reclaimed and reused,
// cancelling again through the old handle stays a no-op.
func TestFireAfterCancelNoop(t *testing.T) {
	k := New(1)
	fired := false
	ev := k.Schedule(Millisecond, "x", func() { fired = true })
	if !k.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	// The slot is still parked in the heap (lazy cancellation); run so
	// it surfaces, is skipped, and is reclaimed.
	for k.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Cancel(ev) {
		t.Fatal("Cancel after reclamation returned true")
	}
	// The reclaimed slot must be reusable.
	refired := false
	ev2 := k.Schedule(Millisecond, "y", func() { refired = true })
	if ev2.slot != ev.slot {
		t.Fatalf("reclaimed slot not reused: got %d want %d", ev2.slot, ev.slot)
	}
	if k.Cancel(ev) {
		t.Fatal("stale handle cancelled the slot's new tenant")
	}
	for k.Step() {
	}
	if !refired {
		t.Fatal("slot's new tenant did not fire")
	}
}

// TestCancelZeroEventNoop: the zero Event handle is inert.
func TestCancelZeroEventNoop(t *testing.T) {
	k := New(1)
	if k.Cancel(Event{}) {
		t.Fatal("Cancel of zero Event returned true")
	}
}

// TestCancelForeignKernelNoop: a handle minted by one kernel must be
// inert on another, even if the slot index exists there.
func TestCancelForeignKernelNoop(t *testing.T) {
	k1, k2 := New(1), New(2)
	ev := k1.Schedule(Millisecond, "x", func() {})
	fired := false
	k2.Schedule(Millisecond, "y", func() { fired = true })
	if k2.Cancel(ev) {
		t.Fatal("foreign handle descheduled another kernel's event")
	}
	for k2.Step() {
	}
	if !fired {
		t.Fatal("k2's event did not fire")
	}
	if !k1.Cancel(ev) {
		t.Fatal("owning kernel could not cancel its own event")
	}
}

// TestSelfCancelDuringCallbackNoop: by the time an event's callback
// runs, its slot is already released, so cancelling its own handle from
// inside the callback is a no-op — even though the slot may already
// host the callback's own reschedule.
func TestSelfCancelDuringCallbackNoop(t *testing.T) {
	k := New(1)
	var self Event
	rescheduled := false
	self = k.Schedule(Millisecond, "self", func() {
		// Schedule first so the freed slot is re-tenanted...
		k.Schedule(Millisecond, "next", func() { rescheduled = true })
		// ...then try to cancel through the firing event's own handle.
		if k.Cancel(self) {
			t.Error("in-flight event cancelled itself")
		}
	})
	for k.Step() {
	}
	if !rescheduled {
		t.Fatal("reschedule from callback was lost")
	}
}

// TestTickerStopInsideOwnCallback: stop() called from inside the
// ticker's own fn races the reschedule that fn's return would perform.
// The next tick must not fire, whether stop ran before or after the
// reschedule was minted.
func TestTickerStopInsideOwnCallback(t *testing.T) {
	k := New(1)
	ticks := 0
	var stop func()
	stop = k.Ticker(Second, "tick", func() {
		ticks++
		if ticks == 3 {
			stop()
			stop() // idempotent
		}
	})
	k.RunUntil(10 * Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (ticker kept firing after in-callback stop)", ticks)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after stop, want 0", k.Pending())
	}
}

// TestTickerStopThenKernelReuse: after an outside stop, the cancelled
// tick's slot must be reclaimed and reusable without ghost ticks.
func TestTickerStopThenKernelReuse(t *testing.T) {
	k := New(1)
	ticks := 0
	stop := k.Ticker(Second, "tick", func() { ticks++ })
	k.RunUntil(2500 * Millisecond)
	stop()
	others := 0
	for i := 0; i < 100; i++ {
		k.Schedule(Time(i)*Millisecond, "filler", func() { others++ })
	}
	k.RunUntil(20 * Second)
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
	if others != 100 {
		t.Fatalf("filler events fired %d times, want 100", others)
	}
}

// TestLazyCancelPendingCount: Pending must not count lazily-cancelled
// events still parked in the heap.
func TestLazyCancelPendingCount(t *testing.T) {
	k := New(1)
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = k.Schedule(Time(i+1)*Second, "n", func() {})
	}
	for i := 0; i < 5; i++ {
		k.Cancel(evs[i])
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", k.Pending())
	}
	n := 0
	for k.Step() {
		n++
	}
	if n != 5 {
		t.Fatalf("drained %d events, want 5", n)
	}
}

// TestScheduleFnArgDelivery: ScheduleFn passes the argument through
// unchanged, and events interleave with closure-path events in strict
// (time, sequence) order.
func TestScheduleFnArgDelivery(t *testing.T) {
	k := New(1)
	var got []int
	push := func(a any) { got = append(got, *a.(*int)) }
	vals := []int{10, 20, 30}
	k.ScheduleFn(2*Millisecond, "fn", push, &vals[1])
	k.Schedule(Millisecond, "closure", func() { got = append(got, vals[0]) })
	k.ScheduleFn(3*Millisecond, "fn", push, &vals[2])
	for k.Step() {
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v, want [10 20 30]", got)
	}
}

// TestScheduleFnZeroAlloc: the fast path must not allocate once the
// pool is warm.
func TestScheduleFnZeroAlloc(t *testing.T) {
	k := New(1)
	arg := new(int)
	nop := func(any) {}
	// Warm the pool and heap.
	for i := 0; i < 64; i++ {
		k.ScheduleFn(Time(i), "warm", nop, arg)
	}
	for k.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleFn(Millisecond, "hot", nop, arg)
		for k.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("ScheduleFn+Step allocated %.1f per op, want 0", allocs)
	}
}

// TestCancelZeroAllocSteadyState: schedule+cancel cycles must also be
// allocation-free once warm (lazy cancellation, recycled slots).
func TestCancelZeroAllocSteadyState(t *testing.T) {
	k := New(1)
	arg := new(int)
	nop := func(any) {}
	for i := 0; i < 64; i++ {
		k.ScheduleFn(Time(i), "warm", nop, arg)
	}
	for k.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := k.ScheduleFn(Millisecond, "hot", nop, arg)
		k.Cancel(ev)
		for k.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Step allocated %.1f per op, want 0", allocs)
	}
}
