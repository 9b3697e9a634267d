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
// fragmentation and reassembly, in one fragment per started MTU (one for
// an empty datagram). The sizes are k·MTU, k·MTU±1 and k·MTU plus a
// random tail for k up to 11, so they take in 0 bytes, less than one
// MTU, exact multiples, one byte over, and ten fragments or more; the
// fixed list makes sure each of those kinds is checked.
func TestPropertyFragmentationRoundTrip(t *testing.T) {
	roundTrip := func(seed int64, size int) bool {
		k := sim.New(seed)
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
		med := radio.NewMedium(k, e)
		m := mac.New(med)
		nw := New(m)
		a := nw.NewNode("a", m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15)))
		b := nw.NewNode("b", m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15)))
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*31 + int(seed))
		}
		frames := 0
		deliver := b.station.OnReceive
		b.station.OnReceive = func(f mac.Frame) {
			frames++
			deliver(f)
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
		if frames != max(1, (size+MTU-1)/MTU) {
			return false
		}
		if size == 0 {
			return received // empty datagram still arrives
		}
		return received && bytes.Equal(got, payload)
	}
	for _, size := range []int{0, 1, MTU - 1, MTU, MTU + 1, 2 * MTU, 3*MTU + 1, 10 * MTU, 10*MTU + 1, 11*MTU - 1} {
		if !roundTrip(int64(size), size) {
			t.Fatalf("a datagram of %d bytes did not round-trip in %d fragments", size, max(1, (size+MTU-1)/MTU))
		}
	}
	f := func(seed int64, kRaw, shape uint8, tail uint16) bool {
		size := int(kRaw%12) * MTU
		switch shape % 4 {
		case 1:
			size++
		case 2:
			size = max(0, size-1)
		case 3:
			size += int(tail) % MTU
		}
		return roundTrip(seed, size)
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
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
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
