// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every Aroma substrate (radio, MAC, discovery, sessions, the user model)
// runs on top of this kernel so that whole-system experiments are exactly
// reproducible from a seed. The kernel provides a virtual clock, an event
// queue with stable FIFO ordering among simultaneous events, cancellable
// timers, and a seeded random number generator.
//
// # Allocation discipline
//
// The event queue is the innermost loop of every simulation, so it is
// allocation-free in steady state: events live in a pooled slot array
// recycled through a free list, and the queue holds int32 slot indices
// only. It is an inlined 4-ary min-heap (no container/heap interface
// calls, no `any` boxing) plus up to eight delay FIFOs beside it. An
// event scheduled with a delay that recurs back to back — a MAC slot,
// DIFS or SIFS timer — is appended to that delay's FIFO, which is
// sorted by construction because the clock never runs backwards;
// everything else goes on the heap. The next event is the
// earliest of the heap root and the FIFO heads, so the pop order is the
// same total (at, seq) order the heap alone produces, and a FIFO that
// drains is reused for the next recurring delay. Cancellation is lazy —
// a cancelled event is marked and skipped when it reaches the front of
// the queue rather than paying a removal on the spot. Event handles are
// values carrying a generation counter, so a stale handle to a recycled
// slot is inert.
//
// Schedule still allocates one closure per call at the caller; hot paths
// that fire millions of timers should use ScheduleFn, which takes a
// plain function plus one argument and allocates nothing when the
// argument is a pointer.
//
// The zero value of Kernel is not usable; create one with New.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual simulation time, measured as a duration since
// the start of the simulation. Virtual time has nanosecond resolution and
// never observes the wall clock.
type Time time.Duration

// Common virtual-time unit aliases, mirroring package time.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the virtual time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// record states.
const (
	recFree uint8 = iota
	recPending
	recCancelled // cancelled but still parked in the queue (lazy removal)
)

// record is one pooled event slot. Slots are recycled through the
// kernel's free list; gen increments every time a slot is released, so
// handles minted for an earlier tenancy no longer match.
type record struct {
	at    Time
	seq   uint64
	fn    func()    // closure path (Schedule)
	fnArg func(any) // fast path (ScheduleFn); exactly one of fn/fnArg is set
	arg   any
	label string
	gen   uint32
	state uint8
}

// Event is a handle to a scheduled callback. It is a small value (copy
// freely; the zero value is inert) identifying one tenancy of a pooled
// kernel slot. After the event fires or is cancelled, the slot is
// recycled and every outstanding handle to it goes stale: Cancel becomes
// a no-op and Pending reports false, even if the slot has since been
// reused for an unrelated event.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Pending reports whether the event is still scheduled to fire: it was
// scheduled, and has not yet fired or been cancelled.
func (e Event) Pending() bool {
	if e.k == nil {
		return false
	}
	r := &e.k.pool[e.slot]
	return r.gen == e.gen && r.state == recPending
}

// At returns the virtual time at which the event is scheduled, or zero
// for a handle that is no longer pending.
func (e Event) At() Time {
	if !e.Pending() {
		return 0
	}
	return e.k.pool[e.slot].at
}

// Label returns the diagnostic label given at scheduling time, or ""
// for a handle that is no longer pending.
func (e Event) Label() string {
	if !e.Pending() {
		return ""
	}
	return e.k.pool[e.slot].label
}

// Kernel is a deterministic discrete-event simulator.
//
// Kernel is not safe for concurrent use: the simulation model is
// single-threaded by design, which is what makes runs reproducible. Use one
// Kernel per goroutine (experiments that want parallelism run independent
// kernels with different seeds).
type Kernel struct {
	now  Time
	pool []record // slot storage; grows, never shrinks
	free []int32  // recycled slot indices
	live int      // scheduled and not yet fired/cancelled

	// The event queue (queue.go): a heap plus delay FIFOs.
	heap      []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	fifos     [numFIFOs]delayFIFO
	fifoLive  uint8 // bit i set: fifos[i] is non-empty
	lastDelay Time  // delay of the previous push
	next      int8  // where the last peek found its slot: a FIFO index, or -1 for the heap

	seq     uint64
	rng     *rand.Rand
	src     *countingSource
	seed    int64
	stopped bool
	steps   uint64
	cancels uint64
	maxTime Time // zero means no horizon

	// Periodic observers outside the event queue (see sampler.go).
	// sampleNext caches the earliest pending sampler deadline (0 =
	// none) so the per-event cost is one comparison.
	samplers   []*sampler
	sampleNext Time
}

// New creates a kernel whose random generator is seeded with seed.
// The same seed always yields the same simulation.
func New(seed int64) *Kernel {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Kernel{
		rng:  rand.New(src),
		src:  src,
		seed: seed,
	}
}

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Rand returns the kernel's deterministic random generator. All model
// randomness must come from this generator to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Pending returns the number of events currently scheduled (excluding
// cancelled events not yet lazily removed from the queue).
func (k *Kernel) Pending() int { return k.live }

// ErrPastEvent is returned by ScheduleAt when the requested time is before
// the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// alloc takes a slot from the free list (or grows the pool), stamps it
// with the next sequence number, and queues it to fire at at >= Now.
func (k *Kernel) alloc(at Time, label string) int32 {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.pool = append(k.pool, record{})
		slot = int32(len(k.pool) - 1)
	}
	k.seq++
	r := &k.pool[slot]
	r.at, r.seq, r.label, r.state = at, k.seq, label, recPending
	k.live++
	k.push(slot, at-k.now)
	return slot
}

// release recycles a slot: its generation bumps so outstanding handles
// go stale, and callback references are dropped so the pool does not
// pin dead closures or arguments.
func (k *Kernel) release(slot int32) {
	r := &k.pool[slot]
	r.fn, r.fnArg, r.arg, r.label = nil, nil, nil, ""
	r.state = recFree
	r.gen++
	k.free = append(k.free, slot)
}

// Schedule queues fn to run after delay d (relative to Now). A negative
// delay is treated as zero: the event runs at the current time, after any
// events already queued for that time. The label is kept for diagnostics.
//
// The closure is one heap allocation per call; timer-dominated code
// should prefer ScheduleFn.
func (k *Kernel) Schedule(d Time, label string, fn func()) Event {
	if d < 0 {
		d = 0
	}
	slot := k.alloc(k.now+d, label)
	k.pool[slot].fn = fn
	return Event{k: k, slot: slot, gen: k.pool[slot].gen}
}

// ScheduleFn queues fn(arg) to run after delay d. It is the
// allocation-free fast path: fn is a plain function value (not a
// closure) and arg is typically a pointer to the state the callback
// needs, so nothing escapes to the heap. Semantics match Schedule.
func (k *Kernel) ScheduleFn(d Time, label string, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	slot := k.alloc(k.now+d, label)
	r := &k.pool[slot]
	r.fnArg, r.arg = fn, arg
	return Event{k: k, slot: slot, gen: r.gen}
}

// ScheduleAt queues fn to run at absolute virtual time at.
func (k *Kernel) ScheduleAt(at Time, label string, fn func()) (Event, error) {
	if at < k.now {
		return Event{}, fmt.Errorf("%w: at=%v now=%v (%s)", ErrPastEvent, at, k.now, label)
	}
	slot := k.alloc(at, label)
	k.pool[slot].fn = fn
	return Event{k: k, slot: slot, gen: k.pool[slot].gen}, nil
}

// Cancel deschedules a pending event. Cancelling the zero Event, an
// event that already fired or was already cancelled, or a stale handle
// whose pool slot has been recycled is a no-op. Cancel reports whether
// the event was actually descheduled by this call.
//
// Cancellation is lazy: the slot stays parked in the queue and is
// reclaimed when it surfaces at the front, so Cancel is O(1).
func (k *Kernel) Cancel(e Event) bool {
	if e.k != k || k == nil {
		return false
	}
	r := &k.pool[e.slot]
	if r.gen != e.gen || r.state != recPending {
		return false
	}
	r.state = recCancelled
	r.fn, r.fnArg, r.arg = nil, nil, nil
	k.live--
	k.cancels++
	return true
}

// Stop makes the currently running Run/RunUntil call return after the
// in-flight event completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// SetHorizon sets a hard time limit: Run stops once the next event would be
// later than limit. A zero limit removes the horizon.
func (k *Kernel) SetHorizon(limit Time) { k.maxTime = limit }

// fire pops and executes the event peek just returned, advancing the
// clock to its timestamp. Samplers due strictly before the event's
// timestamp observe first, so the clock never jumps over a sample
// instant; a sampler due exactly at the timestamp waits until every
// event at that instant has run (samples reflect the full <= t prefix).
func (k *Kernel) fire(slot int32) {
	if k.sampleNext != 0 && k.sampleNext < k.pool[slot].at {
		k.advanceSamplers(k.pool[slot].at - 1)
	}
	r := &k.pool[slot]
	k.popNext()
	k.now = r.at
	fn, fnArg, arg := r.fn, r.fnArg, r.arg
	k.live--
	k.release(slot) // before the callback: it may schedule into this slot
	k.steps++
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// Step executes the single earliest pending event and advances the clock to
// its timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	slot, ok := k.peek()
	if !ok || (k.maxTime != 0 && k.pool[slot].at > k.maxTime) {
		return false
	}
	k.fire(slot)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// horizon is reached. It returns the number of events executed.
func (k *Kernel) Run() uint64 {
	start := k.steps
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.steps - start
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to exactly deadline on return (even if the queue drained earlier). It
// returns the number of events executed.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	start := k.steps
	k.stopped = false
	for !k.stopped {
		slot, ok := k.peek()
		if !ok {
			break
		}
		at := k.pool[slot].at
		if at > deadline {
			break
		}
		if k.maxTime != 0 && at > k.maxTime {
			// Beyond the horizon: firing would violate SetHorizon, so
			// stop here. The clock still advances to the deadline below.
			break
		}
		k.fire(slot)
	}
	// Samplers due in (last event, deadline] observe before the final
	// clock bump so a window's samples exist even when the queue
	// drained early.
	if k.sampleNext != 0 && k.sampleNext <= deadline {
		k.advanceSamplers(deadline)
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.steps - start
}

// RunFor runs the simulation for d virtual time from the current instant.
func (k *Kernel) RunFor(d Time) uint64 { return k.RunUntil(k.now + d) }

// ticker carries the state of one repeating timer so the per-tick
// reschedule goes through the allocation-free ScheduleFn path.
type ticker struct {
	k       *Kernel
	period  Time
	label   string
	fn      func()
	next    Event
	stopped bool
}

// tickerFire is the ScheduleFn trampoline for Ticker.
func tickerFire(a any) {
	t := a.(*ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		// The firing event's slot is already recycled, so this may mint
		// a new tenancy of the same slot; t.next tracks the live one.
		t.next = t.k.ScheduleFn(t.period, t.label, tickerFire, t)
	}
}

// Ticker invokes fn every period until the returned stop function is
// called. The first invocation happens after one full period. Each tick
// reschedules through the pooled fast path, so a long-lived ticker
// performs no per-tick allocation. Stopping is idempotent and safe from
// inside fn itself: the pending reschedule (if any) is cancelled and no
// further ticks fire.
func (k *Kernel) Ticker(period Time, label string, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &ticker{k: k, period: period, label: label, fn: fn}
	t.next = k.ScheduleFn(period, label, tickerFire, t)
	return func() {
		t.stopped = true
		k.Cancel(t.next)
	}
}
