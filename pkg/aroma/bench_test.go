package aroma

import (
	"fmt"
	"testing"

	"aroma/internal/radio"
	"aroma/internal/sim"
)

// benchWorldDense measures the full per-event PHY fan-out through the
// facade: dense bursts of overlapping frames across the 11-channel
// band, n radios on a 1 km arena.
func benchWorldDense(b *testing.B, n int) {
	b.Helper()
	const side = 1000.0
	w := NewWorld(
		WithArena(side, side),
		WithRadioCutoff(-100),
		WithTraceMin(Issue),
	)
	m := w.Medium()
	channels := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cols := 32
	radios := make([]*radio.Radio, n)
	for i := 0; i < n; i++ {
		pos := Pt(float64(i%cols)*(side/float64(cols)), float64(i/cols)*(side/float64(cols)))
		r := m.NewRadio(fmt.Sprintf("r%d", i), pos, channels[i%len(channels)], 15)
		r.OnReceive = func(radio.Receipt) {}
		radios[i] = r
	}
	const burst = 64
	round := func(i int) {
		for j := 0; j < burst; j++ {
			src := radios[(i*burst+j*17)%n]
			w.Schedule(sim.Time(j)*50*sim.Microsecond, "bench.tx", func() {
				if _, err := m.Transmit(src, 2000, radio.Rates[0], nil); err != nil {
					b.Fatal(err)
				}
			})
		}
		for w.Step() {
		}
	}
	// Steady-state warmup: candidate caches, gain rows, ledger and event
	// pools all grow here, so the measured allocs/op is the per-event
	// hot path, which must stay allocation-free. Every
	// radio transmits at least once — gain rows fill lazily per source,
	// and a source first seen inside the timed loop would smear its
	// cache-growth allocations across allocs/op, making the benchgate
	// allocs comparison jitter with b.N.
	for i := 0; i*burst < n+burst; i++ {
		for j := 0; j < burst; j++ {
			src := radios[(i*burst+j)%n]
			w.Schedule(sim.Time(j)*50*sim.Microsecond, "bench.warm", func() {
				if _, err := m.Transmit(src, 2000, radio.Rates[0], nil); err != nil {
					b.Fatal(err)
				}
			})
		}
		for w.Step() {
		}
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

// benchgate gates both sizes against the BENCH_PR8.json baseline; the
// allocs/op gate pins the zero-allocation per-event hot path.

func BenchmarkWorldDense500(b *testing.B) { benchWorldDense(b, 500) }

func BenchmarkWorldDense1000(b *testing.B) { benchWorldDense(b, 1000) }
