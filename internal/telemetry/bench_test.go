package telemetry

import (
	"strconv"
	"testing"
)

// BenchmarkTelemetrySample measures sampler ticks over a registry of
// representative size (32 instruments), reserved for a world's horizon
// as Built.EnableTelemetry reserves one: Reserve(reservePoints), then
// reservePoints ticks per op. Each op starts from a fresh registry, so
// the columns never fill and every tick records a point; ns/op is the
// cost of 1,200 recording ticks, not of ticks that a doubled stride
// skips. No series regrows, so a tick allocates nothing.
// TestHotPathZeroAllocs gates a tick at exactly 0.
func BenchmarkTelemetrySample(b *testing.B) {
	b.ReportAllocs()
	var r *Registry
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r = sampleRegistry()
		r.Reserve(reservePoints)
		b.StartTimer()
		for t := int64(0); t < reservePoints; t++ {
			r.Sample(t)
		}
	}
	b.StopTimer()
	if len(r.t) != reservePoints || r.stride != 1 {
		b.Fatalf("%d points at stride %d; want %d at stride 1", len(r.t), r.stride, reservePoints)
	}
}

// BenchmarkTelemetryReserve measures the reservation a world makes
// when telemetry is enabled: Reserve(1200), a 120 s horizon at the
// 100 ms sampling period, on a fresh world-shaped registry. It
// allocates one value column per sampled instrument plus the time
// column (53 arrays); TestReserveBytesPerPoint pins that
// count and 8 bytes per reserved point, plus size-class rounding.
func BenchmarkTelemetryReserve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := worldRegistry()
		b.StartTimer()
		r.Reserve(reservePoints)
	}
}

// BenchmarkTelemetryPrometheus measures one steady-state scrape of a
// world-sized registry (44 instruments of every kind, most labelled)
// under a world label: the cached skeleton is reused, values are
// formatted into a reused slice, and the scrape allocates nothing.
// TestHotPathZeroAllocs gates it at exactly 0.
func BenchmarkTelemetryPrometheus(b *testing.B) {
	r, c := promRegistry()
	world := L("world", "w1")
	buf := r.AppendPrometheus(nil, world)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*c++
		buf = r.AppendPrometheus(buf[:0], world)
	}
}

// sampleRegistry is 16 counters and 16 gauge funcs, each with a label.
func sampleRegistry() *Registry {
	r := New()
	for i := 0; i < 16; i++ {
		counter(r, "bench.c_total", L("i", string(rune('a'+i))))
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
func promRegistry() (*Registry, *uint64) {
	r := New()
	var c *uint64
	for i := 0; i < 16; i++ {
		c = counter(r, "radio.frames_total", L("kind", string(rune('a'+i))))
		*c = uint64(i) * 1000
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

// reservePoints is BenchmarkTelemetryReserve's reservation.
const reservePoints = 1200

// worldRegistry is shaped like a faulted world's registry: 52 sampled
// instruments (42 counter funcs and 10 gauge funcs, most labelled).
func worldRegistry() *Registry {
	r := New()
	var n uint64
	for i := 0; i < 38; i++ {
		r.CounterFunc("world.events_total", func() uint64 { return n }, L("i", strconv.Itoa(i)))
	}
	for i := 0; i < 10; i++ {
		r.GaugeFunc("world.depth", func() float64 { return float64(n) }, L("i", strconv.Itoa(i)))
	}
	for i := 0; i < 4; i++ {
		counter(r, "trace.events_total", L("severity", strconv.Itoa(i)))
	}
	return r
}
