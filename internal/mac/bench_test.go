package mac

import (
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// BenchmarkSaturatedChannel measures simulator throughput for a fully
// loaded CSMA/CA channel: 8 stations pounding one receiver.
func BenchmarkSaturatedChannel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(int64(i + 1))
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
		med := radio.NewMedium(k, e)
		m := New(med)
		sink := m.AddStation(med.NewRadio("sink", geo.Pt(50, 50), 6, 15))
		for s := 0; s < 8; s++ {
			st := m.AddStation(med.NewRadio("tx", geo.Pt(float64(40+s*2), 48), 6, 15))
			for f := 0; f < 10; f++ {
				_ = st.Send(sink.Addr(), 8000, nil, nil)
			}
		}
		for k.Step() {
		}
		if sink.DeliveredUp == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// exchangesPerOp is the number of data+ACK exchanges one
// BenchmarkUnicastRoundTrip op runs: enough that one allocation per
// exchange lifts allocs/op above the benchmark gate's jitter floor.
const exchangesPerOp = 64

// BenchmarkUnicastRoundTrip measures the cost of clean data+ACK
// exchanges on a warmed pair, exchangesPerOp of them per op.
func BenchmarkUnicastRoundTrip(b *testing.B) {
	k := sim.New(1)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := New(med)
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	c := m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15))
	acked := 0
	done := func(r SendResult) {
		if r.OK {
			acked++
		}
	}
	exchange := func() {
		for j := 0; j < exchangesPerOp; j++ {
			_ = a.Send(c.Addr(), 8000, nil, done)
			for k.Step() {
			}
		}
	}
	exchange() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
	b.StopTimer()
	if acked != (b.N+1)*exchangesPerOp {
		b.Fatalf("%d of %d sends acknowledged", acked, (b.N+1)*exchangesPerOp)
	}
}

// BenchmarkBackoffLoneStation measures one unicast frame to a peer out
// of range, driven through RunUntil on a warmed station: no ACK comes
// back, so the frame is sent MaxRetries+1 times with the contention
// window doubling up to CWMax, about 2,000 backoff slots per op on an
// idle medium. Nothing else is queued while the station counts down,
// so the slots are skipped rather than fired one event each. It
// allocates nothing.
func BenchmarkBackoffLoneStation(b *testing.B) {
	k := sim.New(1)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 10000, 100)))
	med := radio.NewMedium(k, e)
	m := New(med)
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	far := m.AddStation(med.NewRadio("far", geo.Pt(5000, 0), 6, 15))
	send := func() {
		_ = a.Send(far.Addr(), 8000, nil, nil)
		k.RunUntil(k.Now() + sim.Second)
	}
	send() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if a.Drops != uint64(b.N+1) {
		b.Fatalf("%d of %d frames dropped", a.Drops, b.N+1)
	}
}
