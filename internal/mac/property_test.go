package mac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Property: exactly-once delivery — every unicast send that reports OK
// was delivered to the destination exactly once (receiver-side duplicate
// detection absorbs retransmissions whose ACK was lost), and every frame
// delivered upward corresponds to a distinct send.
func TestPropertyExactlyOnceDelivery(t *testing.T) {
	f := func(seed int64, nFrames uint8, gap uint8) bool {
		frames := int(nFrames%20) + 1
		k := sim.New(seed)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 500, 100)))
		med := radio.NewMedium(k, e)
		m := New(med)
		// Distance varies the loss regime from perfect to marginal.
		dist := 5 + float64(gap%120)
		a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
		b := m.AddStation(med.NewRadio("b", geo.Pt(dist, 0), 6, 15))

		seen := make(map[uint64]int)
		b.OnReceive = func(fr Frame) { seen[fr.Seq]++ }
		okSeqs := make(map[uint64]bool)
		for i := 0; i < frames; i++ {
			payload := i
			_ = payload
			if err := a.Send(b.Addr(), 4000, i, func(res SendResult) {
				if res.OK {
					okSeqs[res.Frame.Seq] = true
				}
			}); err != nil {
				return false
			}
		}
		for k.Step() {
		}
		// Every OK send was delivered exactly once.
		for seq := range okSeqs {
			if seen[seq] != 1 {
				return false
			}
		}
		// No frame delivered more than once, ever.
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue conservation — sends either succeed, drop after
// retries, or fail immediately; callbacks account for every frame.
func TestPropertyAllSendsResolve(t *testing.T) {
	f := func(seed int64, nFrames uint8) bool {
		frames := int(nFrames%15) + 1
		k := sim.New(seed)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 1000, 100)))
		med := radio.NewMedium(k, e)
		m := New(med)
		a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
		b := m.AddStation(med.NewRadio("b", geo.Pt(200, 0), 6, 15)) // marginal link
		resolved := 0
		for i := 0; i < frames; i++ {
			if err := a.Send(b.Addr(), 8000, nil, func(SendResult) { resolved++ }); err != nil {
				return false
			}
		}
		for k.Step() {
		}
		return resolved == frames && a.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(78))}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDetectionReAcks(t *testing.T) {
	// Direct unit check of the dedup path: deliver the same data frame
	// twice; the second must be ACKed but not delivered upward.
	k := sim.New(5)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := New(med)
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	b := m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15))
	delivered := 0
	b.OnReceive = func(Frame) { delivered++ }
	frame := Frame{Kind: Data, Src: a.Addr(), Dst: b.Addr(), Seq: 42, Bits: 100}
	for i := 0; i < 2; i++ {
		if _, err := med.Transmit(a.radio, 1000, radio.Rates[0], &frame); err != nil {
			t.Fatal(err)
		}
		for k.Step() {
		}
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if b.SentAcks != 2 {
		t.Fatalf("acks = %d, want 2 (duplicate must be re-acked)", b.SentAcks)
	}
}
