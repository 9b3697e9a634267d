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
		k.Run()
		if sink.DeliveredUp == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkUnicastRoundTrip measures the cost of one clean
// data+ACK exchange.
func BenchmarkUnicastRoundTrip(b *testing.B) {
	k := sim.New(1)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := New(med)
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	c := m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		_ = a.Send(c.Addr(), 8000, nil, func(SendResult) { done = true })
		k.Run()
		if !done {
			b.Fatal("send never resolved")
		}
	}
}
