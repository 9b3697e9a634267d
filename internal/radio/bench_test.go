package radio

import (
	"fmt"
	"math"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
)

// benchDense measures the PHY hot path at scale: n radios spread across
// the 11-channel band on a large floor, with bursts of short overlapping
// frames. The same workload runs with the spatial cutoff (Indexed) and
// without it (NoCutoff: the exact medium, every radio on an overlapping
// channel considered for every frame), so the two families are directly
// comparable.
func benchDense(b *testing.B, n int, channels []int, opts ...MediumOption) {
	b.Helper()
	k := sim.New(1)
	side := 1000.0
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, side, side)))
	m := NewMedium(k, e, opts...)
	cols := 32
	var radios []*Radio
	for i := 0; i < n; i++ {
		pos := geo.Pt(float64(i%cols)*(side/float64(cols)), float64(i/cols)*(side/float64(cols)))
		r := m.NewRadio(fmt.Sprintf("r%d", i), pos, channels[i%len(channels)], 15)
		r.OnReceive = func(Receipt) {}
		radios = append(radios, r)
	}
	const burst = 64
	round := func(i int) {
		for j := 0; j < burst; j++ {
			src := radios[(i*burst+j*17)%n]
			// Stagger starts inside one airtime so transmissions overlap
			// and the interference ledger is exercised.
			k.Schedule(sim.Time(j)*50*sim.Microsecond, "bench.tx", func() {
				if _, err := m.Transmit(src, 2000, Rates[0], nil); err != nil {
					b.Fatal(err)
				}
			})
		}
		k.Run()
	}
	// Warm the candidate caches, event/ledger pools, and gain caches so
	// the measurement (and especially allocs/op) reflects steady state
	// rather than front-loaded growth — the regression gate compares
	// allocs/op across runs with different iteration counts.
	for _, r := range radios {
		m.candidatesFor(r)
		r.gainTo = make([]pairGain, m.nextID+1)
	}
	for i := 0; i < 3; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

var (
	denseIndexed = []MediumOption{WithRxCutoffDBm(-100), WithGridCellM(50)}
	// allChannels crowds every 802.11b channel; orthogonal uses the three
	// non-overlapping ones, so the per-channel partition can skip 2/3 of
	// the band.
	allChannels = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	orthogonal  = []int{1, 6, 11}
)

func BenchmarkMediumDense500Indexed(b *testing.B)  { benchDense(b, 500, allChannels, denseIndexed...) }
func BenchmarkMediumDense500NoCutoff(b *testing.B) { benchDense(b, 500, allChannels) }

func BenchmarkMediumDense1000Indexed(b *testing.B)  { benchDense(b, 1000, allChannels, denseIndexed...) }
func BenchmarkMediumDense1000NoCutoff(b *testing.B) { benchDense(b, 1000, allChannels) }

// ChannelOnly isolates the per-channel partition with the cutoff
// disabled (exact physics) on an orthogonal channel plan.
func BenchmarkMediumDense500ChannelOnly(b *testing.B) { benchDense(b, 500, orthogonal) }

// benchDenseMobile measures the PHY hot path while the whole world
// moves: every radio takes one 0.28 m step per burst, interleaved with
// the transmissions the way mobility ticks interleave with traffic in a
// live scenario. Steps mostly stay inside one default-size grid cell (a few
// percent cross a boundary each burst), so cell-granular invalidation
// keeps nearly every candidatesFor — delivery, interference ledger,
// energy sums — on a cached set; a per-move cache wipe would rebuild
// them all.
func benchDenseMobile(b *testing.B, n int, opts ...MediumOption) {
	b.Helper()
	k := sim.New(1)
	// Constant density: the arena grows with the fleet, so the 500- and
	// 1000-radio runs stress invalidation at the same neighbourhood size.
	side := 2500.0 * math.Sqrt(float64(n)/500.0)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, side, side)))
	m := NewMedium(k, e, opts...)
	cols := 32
	radios := make([]*Radio, n)
	headings := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		pos := geo.Pt(float64(i%cols)*(side/float64(cols)), float64(i/cols)*(side/float64(cols)))
		// 0 dBm against the -100 dBm cutoff hears out to ~100 m: local
		// neighbourhoods, so the spatial index has real work to do.
		r := m.NewRadio(fmt.Sprintf("r%d", i), pos, allChannels[i%len(allChannels)], 0)
		r.OnReceive = func(Receipt) {}
		radios[i] = r
		a := 2 * math.Pi * float64(i) / float64(n)
		headings[i] = geo.Pt(0.28*math.Cos(a), 0.28*math.Sin(a))
	}
	step := func(i int) {
		r := radios[i]
		r.SetPos(geo.Pt(
			math.Mod(r.Pos.X+headings[i].X+side, side),
			math.Mod(r.Pos.Y+headings[i].Y+side, side),
		))
	}
	const burst = 64
	round := func(i int) {
		for j := 0; j < burst; j++ {
			src := radios[(i*burst+j*17)%n]
			lo, hi := j*n/burst, (j+1)*n/burst
			k.Schedule(sim.Time(j)*50*sim.Microsecond, "bench.moveTx", func() {
				for idx := lo; idx < hi; idx++ {
					step(idx)
				}
				if _, err := m.Transmit(src, 2000, Rates[0], nil); err != nil {
					b.Fatal(err)
				}
			})
		}
		k.Run()
	}
	// Steady-state warmup, as in benchDense; under mobility the caches
	// keep churning, but pool and cache growth is front-loaded.
	for _, r := range radios {
		m.candidatesFor(r)
		r.gainTo = make([]pairGain, m.nextID+1)
	}
	for i := 0; i < 3; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

func BenchmarkMediumDenseMobile500Cell(b *testing.B) {
	benchDenseMobile(b, 500, WithRxCutoffDBm(-100))
}

func BenchmarkMediumDenseMobile1000Cell(b *testing.B) {
	benchDenseMobile(b, 1000, WithRxCutoffDBm(-100))
}
