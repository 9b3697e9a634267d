package sim

import "testing"

// benchArg is the shared ScheduleFn payload for the kernel benchmarks.
type benchArg struct{ n int }

func benchNop(a any) { a.(*benchArg).n++ }

// BenchmarkKernelSchedule schedules 1024 timers at one instant, over
// 97 distinct delays in rotation, and drains them through the pooled
// fast path. No two consecutive pushes share a delay, so every event
// goes on the heap: this is the case the delay FIFOs must not slow
// down. The CI regression gate tracks it (see scripts/bench.sh); it
// must stay at zero allocs/op. BenchmarkKernelMACPattern is the MAC's
// shape.
func BenchmarkKernelSchedule(b *testing.B) {
	k := New(1)
	arg := &benchArg{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			k.ScheduleFn(Time(j%97)*Microsecond, "bench", benchNop, arg)
		}
		k.Run()
	}
}

// BenchmarkKernelScheduleClosure measures the closure path (one
// allocation per Schedule at the caller) for comparison.
func BenchmarkKernelScheduleClosure(b *testing.B) {
	k := New(1)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			k.Schedule(Time(j%97)*Microsecond, "bench", func() { n++ })
		}
		k.Run()
	}
}

// BenchmarkKernelScheduleCancel exercises the lazy-cancellation path:
// half the scheduled timers are cancelled before the queue drains,
// mirroring the MAC's ACK-timeout churn (most timeouts are cancelled by
// the ACK arriving first).
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := New(1)
	arg := &benchArg{}
	var evs [1024]Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j] = k.ScheduleFn(Time(j%97)*Microsecond, "bench", benchNop, arg)
		}
		for j := 0; j < len(evs); j += 2 {
			k.Cancel(evs[j])
		}
		k.Run()
	}
}

// MAC-pattern shape, as measured in the densitysweep scenario: 300
// beacon tickers at 400 ms with staggered phases, and 55 stations whose
// single pending timer re-arms at DIFS, then a run of backoff slots,
// then SIFS, the way an 802.11 DCF station contends. The MAC constants
// are repeated here because package mac imports this one.
const (
	macSlotTime = 20 * Microsecond
	macSIFS     = 10 * Microsecond
	macDIFS     = macSIFS + 2*macSlotTime
	macBeacon   = 400 * Millisecond
)

// macStation is one contending station of the MAC-pattern benchmarks.
type macStation struct {
	rng   uint32 // xorshift state for the backoff draw
	slots int    // backoff slots left before SIFS
	sifs  bool   // the pending timer is SIFS
	arm   func(d Time, s *macStation)
}

func macFire(a any) {
	s := a.(*macStation)
	switch {
	case s.sifs: // exchange done: contend again
		s.sifs = false
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 17
		s.rng ^= s.rng << 5
		s.slots = int(s.rng % 32)
		s.arm(macDIFS, s)
	case s.slots > 0:
		s.slots--
		s.arm(macSlotTime, s)
	default:
		s.sifs = true
		s.arm(macSIFS, s)
	}
}

// benchMACPattern builds the MAC-pattern queue on a kernel through the
// given operations, warms it past every ticker's start, and then times
// 1024 events per iteration.
func benchMACPattern(b *testing.B, schedule func(Time, func()), scheduleFn func(Time, func(any), any),
	ticker func(Time, func()), step func() bool) {
	nop := func() {}
	for i := 0; i < 300; i++ {
		schedule(Time(i)*macBeacon/300, func() { ticker(macBeacon, nop) })
	}
	arm := func(d Time, s *macStation) { scheduleFn(d, macFire, s) }
	for i := 0; i < 55; i++ {
		s := &macStation{rng: uint32(2*i + 1), sifs: true, arm: arm}
		arm(Time(i)*Microsecond, s)
	}
	for n := 0; n < 1<<20; n++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			step()
		}
	}
}

// BenchmarkKernelMACPattern times 1024 events of the MAC-pattern queue
// on Kernel, whose delay FIFOs take the slot, DIFS and SIFS timers off
// the heap, leaving it the beacon ticks. It must stay at zero
// allocs/op.
func BenchmarkKernelMACPattern(b *testing.B) {
	k := New(1)
	benchMACPattern(b,
		func(d Time, fn func()) { k.Schedule(d, "start", fn) },
		func(d Time, fn func(any), arg any) { k.ScheduleFn(d, "mac", fn, arg) },
		func(p Time, fn func()) { k.Ticker(p, "beacon", fn) },
		k.Step)
}

// BenchmarkKernelMACPatternHeap is BenchmarkKernelMACPattern on the
// heap-only reference kernel: the baseline the FIFOs are measured
// against, in the same run.
func BenchmarkKernelMACPatternHeap(b *testing.B) {
	k := newHeapKernel(1)
	benchMACPattern(b,
		func(d Time, fn func()) { k.Schedule(d, "start", fn) },
		func(d Time, fn func(any), arg any) { k.ScheduleFn(d, "mac", fn, arg) },
		func(p Time, fn func()) { k.Ticker(p, "beacon", fn) },
		k.Step)
}
