package telemetry

import (
	"io"
	"testing"
)

// BenchmarkTelemetryHotPath pins the zero-allocation contract on the
// sim-plane update path: a counter increment is an array write through
// a dense-slot handle — no maps, no interface boxing, no allocation.
// The benchgate baseline gates allocs/op at 0.
func BenchmarkTelemetryHotPath(b *testing.B) {
	r := New()
	c := r.Counter("bench.events_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatalf("counter = %d, want %d", c.Value(), b.N)
	}
}

// BenchmarkTelemetryDisabledHotPath measures the cost model code pays
// when telemetry is off: updates through zero-value handles, which must
// reduce to a nil check. Also alloc-gated at 0.
func BenchmarkTelemetryDisabledHotPath(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetrySample measures one sampler tick over a registry of
// representative size (32 instruments), reserved for the run's horizon
// (b.N samples) as Built.EnableTelemetry reserves a world: no series
// ever regrows and decimation compacts in place, so a tick allocates
// nothing. TestHotPathZeroAllocs gates the same loop at exactly 0.
func BenchmarkTelemetrySample(b *testing.B) {
	r := sampleRegistry()
	r.Reserve(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample(int64(i))
	}
}

// BenchmarkTelemetryPrometheus measures one steady-state scrape of a
// world-sized registry (44 instruments of every kind, most labelled)
// under a world label: the cached skeleton is reused, values are
// formatted into the reused buffer, and the scrape allocates nothing.
// TestHotPathZeroAllocs gates it at exactly 0.
func BenchmarkTelemetryPrometheus(b *testing.B) {
	r, c := promRegistry()
	world := L("world", "w1")
	if err := r.WritePrometheus(io.Discard, world); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		if err := r.WritePrometheus(io.Discard, world); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleRegistry is 16 counters and 16 gauge funcs, each with a label.
func sampleRegistry() *Registry {
	r := New()
	for i := 0; i < 16; i++ {
		r.Counter("bench.c_total", L("i", string(rune('a'+i))))
	}
	for i := 0; i < 16; i++ {
		v := float64(i)
		r.GaugeFunc("bench.g", func() float64 { return v }, L("i", string(rune('a'+i))))
	}
	return r
}

// promRegistry is a world-sized registry: 44 instruments across every
// kind, most of them labelled, with non-integral values in play. It
// returns one counter for callers to move.
func promRegistry() (*Registry, Counter) {
	r := New()
	var c Counter
	for i := 0; i < 16; i++ {
		c = r.Counter("radio.frames_total", L("kind", string(rune('a'+i))))
		c.Add(uint64(i) * 1000)
	}
	for i := 0; i < 12; i++ {
		v := float64(i) + 0.25
		r.GaugeFunc("mac.queue_depth", func() float64 { return v }, L("queue", string(rune('a'+i))))
	}
	for i := 0; i < 8; i++ {
		v := uint64(i) << 40
		r.CounterFunc("kernel.steps_total", func() uint64 { return v }, L("shard", string(rune('a'+i))))
	}
	for i := 0; i < 6; i++ {
		v := float64(i) / 3
		r.GaugeFunc("lease.load", func() float64 { return v }, L("pool", string(rune('a'+i))))
	}
	r.HostCounter("host.sse_dropped_total").Add(7)
	r.HostCounter("host.world_failures_total")
	return r, c
}
