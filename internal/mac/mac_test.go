package mac

import (
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// testbed builds a kernel, medium and n stations in a row, 5 m apart, all
// on channel 6.
func testbed(seed int64, n int) (*sim.Kernel, *MAC, []*Station) {
	k := sim.New(seed)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 500, 100)))
	med := radio.NewMedium(k, e)
	m := New(med, Config{})
	stations := make([]*Station, n)
	for i := range stations {
		r := med.NewRadio("r", geo.Pt(float64(5*i), 0), 6, 15)
		stations[i] = m.AddStation(r)
	}
	return k, m, stations
}

func TestUnicastDeliveryWithAck(t *testing.T) {
	k, _, sta := testbed(1, 2)
	var delivered []Frame
	sta[1].OnReceive = func(f Frame) { delivered = append(delivered, f) }
	var res *SendResult
	err := sta[0].Send(sta[1].Addr(), 8000, "hi", func(r SendResult) { res = &r })
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(delivered) != 1 || delivered[0].Payload != "hi" {
		t.Fatalf("delivered = %v", delivered)
	}
	if res == nil || !res.OK || res.Retries != 0 {
		t.Fatalf("send result = %+v", res)
	}
	if sta[1].SentAcks != 1 {
		t.Fatalf("acks = %d", sta[1].SentAcks)
	}
}

func TestBroadcastReachesAllNoAcks(t *testing.T) {
	k, _, sta := testbed(1, 4)
	counts := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		sta[i].OnReceive = func(Frame) { counts[i]++ }
	}
	var res *SendResult
	if err := sta[0].Send(Broadcast, 8000, "all", func(r SendResult) { res = &r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("station %d received %d broadcasts", i, counts[i])
		}
	}
	if res == nil || !res.OK {
		t.Fatalf("broadcast result = %+v", res)
	}
	for i := 1; i < 4; i++ {
		if sta[i].SentAcks != 0 {
			t.Fatal("broadcast should not be ACKed")
		}
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	k, _, sta := testbed(2, 2)
	var got []any
	sta[1].OnReceive = func(f Frame) { got = append(got, f.Payload) }
	for i := 0; i < 5; i++ {
		if err := sta[0].Send(sta[1].Addr(), 4000, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sta[0].QueueLen() != 4 { // one dequeued immediately
		t.Fatalf("queue = %d, want 4", sta[0].QueueLen())
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d frames", len(got))
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestUnreachablePeerDropsAfterRetries(t *testing.T) {
	k := sim.New(3)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 10000, 100)))
	med := radio.NewMedium(k, e)
	m := New(med, Config{})
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	b := m.AddStation(med.NewRadio("b", geo.Pt(5000, 0), 6, 15)) // far out of range
	var res *SendResult
	if err := a.Send(b.Addr(), 8000, "x", func(r SendResult) { res = &r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res == nil || res.OK {
		t.Fatalf("expected drop, got %+v", res)
	}
	if res.Err != ErrTooManyRetries {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Retries != MaxRetries+1 {
		t.Fatalf("retries = %d, want %d", res.Retries, MaxRetries+1)
	}
	if a.Drops != 1 {
		t.Fatalf("drops = %d", a.Drops)
	}
}

func TestZeroBitsRejected(t *testing.T) {
	_, _, sta := testbed(1, 2)
	if err := sta[0].Send(sta[1].Addr(), 0, nil, nil); err != ErrZeroBits {
		t.Fatalf("err = %v", err)
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// 8 stations each send 3 unicast frames to station 0; CSMA/CA should
	// deliver all of them despite contention.
	k, _, sta := testbed(4, 9)
	received := 0
	sta[0].OnReceive = func(Frame) { received++ }
	okCount := 0
	for i := 1; i < 9; i++ {
		for j := 0; j < 3; j++ {
			if err := sta[i].Send(sta[0].Addr(), 4000, j, func(r SendResult) {
				if r.OK {
					okCount++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run()
	if received != 24 {
		t.Fatalf("received %d frames, want 24", received)
	}
	if okCount != 24 {
		t.Fatalf("ok sends = %d, want 24", okCount)
	}
}

func TestContentionCausesRetries(t *testing.T) {
	// With many simultaneous senders, at least some collisions and
	// retries should occur (they start at the same instant).
	k, _, sta := testbed(5, 11)
	totalRetries := uint64(0)
	for i := 1; i < 11; i++ {
		for j := 0; j < 5; j++ {
			if err := sta[i].Send(sta[0].Addr(), 12000, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run()
	for i := 1; i < 11; i++ {
		totalRetries += sta[i].RetriesTotal
	}
	if totalRetries == 0 {
		t.Fatal("expected at least one retry under heavy contention")
	}
}

func TestFixedWindowAblationDiffersFromBEB(t *testing.T) {
	run := func(policy BackoffPolicy) uint64 {
		k := sim.New(7)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 500, 100)))
		med := radio.NewMedium(k, e)
		m := New(med, Config{Backoff: policy})
		stations := make([]*Station, 13)
		for i := range stations {
			stations[i] = m.AddStation(med.NewRadio("r", geo.Pt(float64(3*i), 0), 6, 15))
		}
		for i := 1; i < len(stations); i++ {
			for j := 0; j < 6; j++ {
				stations[i].Send(stations[0].Addr(), 12000, nil, nil)
			}
		}
		k.Run()
		var retries uint64
		for _, s := range stations {
			retries += s.RetriesTotal
		}
		return retries
	}
	beb := run(BinaryExponential)
	fixed := run(FixedWindow)
	if beb == fixed {
		t.Fatalf("ablation arms identical: beb=%d fixed=%d", beb, fixed)
	}
}

func TestStationLookup(t *testing.T) {
	_, m, sta := testbed(1, 2)
	if m.stations[sta[0].Addr()] != sta[0] {
		t.Fatal("station not registered under its address")
	}
	if sta[0].Radio() == nil {
		t.Fatal("Radio() nil")
	}
	if sta[0].String() == "" {
		t.Fatal("String() empty")
	}
}

func TestDeterministicOutcome(t *testing.T) {
	run := func() (uint64, sim.Time) {
		k, _, sta := testbed(42, 6)
		for i := 1; i < 6; i++ {
			for j := 0; j < 4; j++ {
				sta[i].Send(sta[0].Addr(), 8000, nil, nil)
			}
		}
		k.Run()
		return sta[0].DeliveredUp, k.Now()
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
}

func TestAddStationRejectsDoubleBinding(t *testing.T) {
	_, m, _ := testbed(1, 1)
	r := m.Medium().NewRadio("shared", geo.Pt(10, 0), 6, 15)
	m.AddStation(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double-binding a radio did not panic")
		}
	}()
	m.AddStation(r) // second owner: must panic at wiring time
}

func TestAddStationRejectsCustomHandlerTakeover(t *testing.T) {
	_, m, _ := testbed(1, 1)
	r := m.Medium().NewRadio("probe", geo.Pt(10, 0), 6, 15)
	r.OnReceive = func(radio.Receipt) {} // scenario-level receive logic
	defer func() {
		if recover() == nil {
			t.Fatal("binding a radio with custom receive logic did not panic")
		}
	}()
	m.AddStation(r)
}
