package radio

import (
	"fmt"
	"math"
	"runtime"
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
	k, m, radios := denseWorld(n, channels, opts...)
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
		for k.Step() {
		}
	}
	// Warm the candidate caches, sender rows, event/ledger pools, and
	// gain caches so the measurement (and especially allocs/op) reflects
	// steady state rather than front-loaded growth — the regression gate
	// compares allocs/op across runs with different iteration counts.
	warmSenders(b, k, m, radios)
	for i := 0; i < 3; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

// warmSenders sends one frame from every radio, one at a time, so each
// sender's candidate set and hearer row exist before a benchmark
// measures: a row is built the first time its radio sends.
func warmSenders(b *testing.B, k *sim.Kernel, m *Medium, radios []*Radio) {
	b.Helper()
	for _, r := range radios {
		if _, err := m.Transmit(r, 2000, Rates[0], nil); err != nil {
			b.Fatal(err)
		}
		for k.Step() {
		}
	}
}

// denseWorld builds the dense benchmarks' medium: n 15 dBm radios on a
// 32-column grid over a 1000 m floor, cycling through channels.
func denseWorld(n int, channels []int, opts ...MediumOption) (*sim.Kernel, *Medium, []*Radio) {
	k := sim.New(1)
	side := 1000.0
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, side, side)))
	m := NewMedium(k, e, opts...)
	cols := 32
	radios := make([]*Radio, n)
	for i := range radios {
		pos := geo.Pt(float64(i%cols)*(side/float64(cols)), float64(i/cols)*(side/float64(cols)))
		r := m.NewRadio(fmt.Sprintf("r%d", i), pos, channels[i%len(channels)], 15)
		r.OnReceive = func(Receipt) {}
		radios[i] = r
	}
	return k, m, radios
}

var (
	denseIndexed = []MediumOption{WithRxCutoffDBm(-100), WithGridCellM(50)}
	// allChannels crowds every 802.11b channel; orthogonal uses the three
	// non-overlapping ones, so the per-channel partition can skip 2/3 of
	// the band.
	allChannels = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	orthogonal  = []int{1, 6, 11}
)

// BenchmarkMediumDenseHeap4000 measures what a dense world holds in
// memory: 4000 15 dBm radios on a square grid over a 1 km floor, with
// the -100 dBm cutoff and all 11 channels, each sending one frame in
// turn. An op builds the world and plays the frames; heap-B is the live
// heap the world adds, read after a GC. The link-gain memo grows with
// the hearers, not with the radio count per sender, so this stays well
// below the 512 MB a dense 32-byte entry per directed pair would take.
func BenchmarkMediumDenseHeap4000(b *testing.B) { benchDenseHeap(b, 4000) }

func benchDenseHeap(b *testing.B, n int) {
	b.ReportAllocs()
	var heap float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		k := sim.New(1)
		const side = 1000.0
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, side, side)))
		m := NewMedium(k, e, denseIndexed...)
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		step := side / float64(cols)
		radios := make([]*Radio, n)
		for i := range radios {
			pos := geo.Pt(float64(i%cols)*step, float64(i/cols)*step)
			r := m.NewRadio(fmt.Sprintf("r%d", i), pos, allChannels[i%len(allChannels)], 15)
			r.OnReceive = func(Receipt) {}
			radios[i] = r
		}
		warmSenders(b, k, m, radios)
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		heap = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		b.StartTimer()
	}
	b.ReportMetric(heap, "heap-B")
}

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
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, side, side)))
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
		for k.Step() {
		}
	}
	// Steady-state warmup, as in benchDense; under mobility the caches
	// keep churning, but pool and cache growth is front-loaded.
	warmSenders(b, k, m, radios)
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

// busySlot is the carrier-sense polling period of the Busy benchmark,
// the 802.11b backoff slot.
const busySlot = 20 * sim.Microsecond

// frameStream keeps frames flying through a dense medium: every 50 µs
// the next source (stepping by 17 through the radios, as benchDense's
// bursts do) sends a 2000-bit frame at 1 Mb/s, so about 40 frames are in
// the air at once. It reschedules itself through ScheduleFn, so the
// stream allocates only the Transmission records.
type frameStream struct {
	m      *Medium
	radios []*Radio
	next   int
	stop   bool
	err    error
}

func sendNextFrame(a any) {
	s := a.(*frameStream)
	if s.stop {
		return
	}
	src := s.radios[s.next*17%len(s.radios)]
	s.next++
	if _, err := s.m.Transmit(src, 2000, Rates[0], nil); err != nil && s.err == nil {
		s.err = err
	}
	s.m.kernel.ScheduleFn(50*sim.Microsecond, "bench.tx", sendNextFrame, s)
}

// busyDense builds the Busy benchmark's world — 500 indexed radios under
// a running frameStream — and warms it for 30 ms, until every radio has
// sent a frame, so ledgers, hearer rows and gain caches are at steady
// state. poll advances the clock one slot and asks every radio's
// carrier sense, as backoff slots do; it returns how many sensed busy.
func busyDense() (s *frameStream, poll func() int) {
	k, m, radios := denseWorld(500, allChannels, denseIndexed...)
	s = &frameStream{m: m, radios: radios}
	k.ScheduleFn(0, "bench.tx", sendNextFrame, s)
	poll = func() int {
		k.RunFor(busySlot)
		busy := 0
		for _, r := range radios {
			if m.Busy(r) {
				busy++
			}
		}
		return busy
	}
	for i := 0; i < 1500; i++ {
		poll()
	}
	return s, poll
}

// BenchmarkMediumBusyDense500 measures carrier sense at scale: each op
// is one 20 µs slot in which all 500 radios of the indexed dense world
// poll Busy while a frame starts every 50 µs. Starts, ends and frames
// crossing SensingDelay keep invalidating the carrier-sense memos of
// the radios that hear them, so ops mix memo hits with recomputes. The
// stream's Transmission records amortize to under one allocation per
// op; the polling itself allocates nothing (TestMediumBusyAllocsNothing).
func BenchmarkMediumBusyDense500(b *testing.B) {
	s, poll := busyDense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poll()
	}
	b.StopTimer()
	if s.err != nil {
		b.Fatal(s.err)
	}
}
