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
