package aroma

import (
	"testing"

	"aroma/internal/trace"
)

func record(w *World, n int) {
	for i := 0; i < n; i++ {
		w.Log().Info(trace.Abstract, "dev", "event %d", i)
	}
}

func TestBusDeliveryOrder(t *testing.T) {
	w := NewWorld()
	var first, second []string
	w.Subscribe(trace.Debug, func(ev trace.Event) { first = append(first, ev.Message()) })
	w.Subscribe(trace.Debug, func(ev trace.Event) {
		// Subscriber order: by the time the second subscriber sees event
		// i, the first must already have seen it.
		if len(first) != len(second)+1 {
			t.Errorf("subscription order broken: first=%d second=%d", len(first), len(second))
		}
		second = append(second, ev.Message())
	})
	record(w, 5)
	want := []string{"event 0", "event 1", "event 2", "event 3", "event 4"}
	for i, m := range want {
		if first[i] != m || second[i] != m {
			t.Fatalf("delivery out of record order at %d: %q / %q", i, first[i], second[i])
		}
	}
	if w.bus.deliveries != 10 {
		t.Errorf("deliveries = %d, want 10", w.bus.deliveries)
	}
}

func TestBusSeverityFilter(t *testing.T) {
	w := NewWorld()
	var got []trace.Severity
	w.Subscribe(trace.Issue, func(ev trace.Event) { got = append(got, ev.Severity) })
	w.Log().Info(trace.Abstract, "d", "routine")
	w.Log().Issue(trace.Abstract, "d", "concern")
	w.Log().Violation(trace.Abstract, "d", "broken relation")
	if len(got) != 2 || got[0] != trace.Issue || got[1] != trace.Violation {
		t.Errorf("filtered deliveries = %v, want [Issue Violation]", got)
	}
}

func TestBusCancel(t *testing.T) {
	w := NewWorld()
	n := 0
	cancel := w.Subscribe(trace.Debug, func(trace.Event) { n++ })
	record(w, 2)
	cancel()
	cancel() // idempotent
	record(w, 3)
	if n != 2 {
		t.Errorf("cancelled subscriber saw %d events, want 2", n)
	}
	w.Subscribe(trace.Debug, func(trace.Event) {}) // compacts the list
	if len(w.bus.subs) != 1 {
		t.Errorf("subscriptions after cancel and resubscribe = %d, want 1", len(w.bus.subs))
	}
}

func TestBusReentrantSubscribe(t *testing.T) {
	w := NewWorld()
	nested := 0
	added := false
	w.Subscribe(trace.Debug, func(trace.Event) {
		if !added {
			added = true
			// Subscribing mid-delivery must not corrupt the bus; the new
			// subscriber sees subsequent events only.
			w.Subscribe(trace.Debug, func(trace.Event) { nested++ })
		}
	})
	record(w, 3)
	if nested != 2 {
		t.Errorf("nested subscriber saw %d events, want 2", nested)
	}
}

func TestBusMinSeverityInteraction(t *testing.T) {
	// Events below the log's min severity are never recorded, so never
	// published.
	w := NewWorld(WithTraceMin(trace.Issue))
	n := 0
	w.Subscribe(trace.Debug, func(trace.Event) { n++ })
	w.Log().Info(trace.Abstract, "d", "discarded")
	w.Log().Issue(trace.Abstract, "d", "kept")
	if n != 1 {
		t.Errorf("subscriber saw %d events, want 1 (log filters first)", n)
	}
}

// TestBusPublishAllocatesNothing gates the per-record path every world
// runs: publish counts the record's severity and fans it out without
// allocating, with no subscriber and with one.
func TestBusPublishAllocatesNothing(t *testing.T) {
	b := newBus()
	ev := trace.Event{Severity: trace.Info, Entity: "dev"}
	if n := testing.AllocsPerRun(1000, func() { b.publish(ev) }); n != 0 {
		t.Fatalf("publish with no subscriber: %v allocs/op, want 0", n)
	}
	seen := 0
	b.subscribe(trace.Debug, func(trace.Event) { seen++ })
	if n := testing.AllocsPerRun(1000, func() { b.publish(ev) }); n != 0 {
		t.Fatalf("publish to one subscriber: %v allocs/op, want 0", n)
	}
	if seen != 1001 || b.records[trace.Info] != 2002 {
		t.Fatalf("%d deliveries and %d info records, want 1001 and 2002", seen, b.records[trace.Info])
	}
}

// TestTraceEventsCountFromCreation pins that trace.events_total counts
// every kept record since the world was created, not since telemetry
// was enabled, so a world instrumented late reports what one
// instrumented from the start does.
func TestTraceEventsCountFromCreation(t *testing.T) {
	w := NewWorld()
	record(w, 3)
	w.Log().Issue(trace.Abstract, "dev", "issue")
	snap := w.EnableTelemetry().Snapshot(0)
	record(w, 2)
	after := w.Telemetry().Snapshot(0)
	want := map[string][2]float64{"debug": {0, 0}, "info": {3, 5}, "issue": {1, 1}, "violation": {0, 0}}
	seen := 0
	for i, in := range snap.Instruments {
		if in.Name != "trace.events_total" {
			continue
		}
		seen++
		sev := in.Labels["severity"]
		if got := [2]float64{in.Value, after.Instruments[i].Value}; got != want[sev] {
			t.Errorf("trace.events_total{severity=%q} = %v before and after two more records, want %v", sev, got, want[sev])
		}
	}
	if seen != len(want) {
		t.Fatalf("%d trace.events_total instruments, want %d", seen, len(want))
	}
}
