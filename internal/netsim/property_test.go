package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Property: datagrams of any size round-trip intact through
// fragmentation and reassembly for any MTU.
func TestPropertyFragmentationRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, mtuRaw uint8) bool {
		size := int(sizeRaw % 8000)
		mtu := int(mtuRaw%200) + 8
		k := sim.New(seed)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
		med := radio.NewMedium(k, e)
		m := mac.New(med)
		nw := New(m)
		a := nw.NewNode("a", m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15)))
		b := nw.NewNode("b", m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15)))
		a.MTU = mtu
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*31 + int(seed))
		}
		var got []byte
		received := false
		b.Handle(PortDynamic, func(src Addr, data []byte) {
			got = data
			received = true
		})
		a.SendDatagram(b.Addr(), PortDynamic, payload)
		for k.Step() {
		}
		if size == 0 {
			return received // empty datagram still arrives
		}
		return received && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(81))}); err != nil {
		t.Fatal(err)
	}
}

// Property: calls always resolve — with a response, a timeout, or a
// link failure — and the pending-call table drains.
func TestPropertyCallsAlwaysResolve(t *testing.T) {
	f := func(seed int64, nCalls uint8, serve bool) bool {
		calls := int(nCalls%10) + 1
		k := sim.New(seed)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
		med := radio.NewMedium(k, e)
		m := mac.New(med)
		nw := New(m)
		a := nw.NewNode("a", m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15)))
		b := nw.NewNode("b", m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15)))
		if serve {
			b.HandleRequest(PortControl, func(src Addr, data []byte) ([]byte, func()) { return data, nil })
		}
		resolved := 0
		for i := 0; i < calls; i++ {
			a.Call(b.Addr(), PortControl, []byte{byte(i)}, sim.Second, func([]byte, error) {
				resolved++
			})
		}
		for k.Step() {
		}
		return resolved == calls && a.PendingCalls() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(82))}); err != nil {
		t.Fatal(err)
	}
}
