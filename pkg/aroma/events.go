package aroma

import "aroma/internal/trace"

// bus is the world's event bus behind World.Subscribe: it bridges the
// runtime trace to live subscribers. Events are delivered synchronously,
// in record order, to subscribers in subscription order — fully
// deterministic, like everything else on the kernel.
type bus struct {
	subs []*busSub
	// deliveries counts subscriber callbacks run; telemetry exports it
	// as trace.deliveries_total.
	deliveries uint64
	// records counts every published record since the world was
	// created, indexed by trace.Severity; telemetry exports it as
	// trace.events_total.
	records [trace.Violation + 1]uint64
}

type busSub struct {
	min trace.Severity
	fn  func(trace.Event)
}

func newBus() *bus { return &bus{} }

// subscribe registers fn for every event at or above min severity and
// returns a cancel function. Cancelling twice is a no-op. Subscribing
// from inside a delivery is allowed; the new subscriber sees the next
// event.
func (b *bus) subscribe(min trace.Severity, fn func(trace.Event)) (cancel func()) {
	b.compact()
	s := &busSub{min: min, fn: fn}
	b.subs = append(b.subs, s)
	return func() { s.fn = nil }
}

// compact drops cancelled subscribers, preserving order. It builds a
// fresh slice rather than shifting in place: publish may be iterating a
// snapshot of the old backing array, which must stay intact.
func (b *bus) compact() {
	live := make([]*busSub, 0, len(b.subs))
	for _, s := range b.subs {
		if s.fn != nil {
			live = append(live, s)
		}
	}
	b.subs = live
}

// publish fans one event out to the live subscribers. It iterates a
// snapshot of the list so callbacks may subscribe or cancel reentrantly.
func (b *bus) publish(ev trace.Event) {
	if s := ev.Severity; s >= 0 && int(s) < len(b.records) {
		b.records[s]++
	}
	snapshot := b.subs
	for _, s := range snapshot {
		if s.fn != nil && ev.Severity >= s.min {
			b.deliveries++
			s.fn(ev)
		}
	}
}
