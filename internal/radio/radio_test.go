package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
)

func newMedium(seed int64) (*sim.Kernel, *Medium) {
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	return k, NewMedium(k, e)
}

func TestPickRate(t *testing.T) {
	if r := PickRate(50); r.Mbps != 11 {
		t.Fatalf("high SNR rate = %v", r.Mbps)
	}
	if r := PickRate(8); r.Mbps != 2 {
		t.Fatalf("8 dB rate = %v", r.Mbps)
	}
	if r := PickRate(-5); r.Mbps != 1 {
		t.Fatalf("low SNR rate = %v", r.Mbps)
	}
	if r := PickRate(9); r.Mbps != 5.5 {
		t.Fatalf("9 dB rate = %v", r.Mbps)
	}
}

func TestChannelOverlap(t *testing.T) {
	if ChannelOverlap(6, 6) != 1 {
		t.Fatal("co-channel overlap != 1")
	}
	if ChannelOverlap(1, 6) != 0 || ChannelOverlap(1, 11) != 0 {
		t.Fatal("orthogonal channels should not overlap")
	}
	if ChannelOverlap(1, 2) != ChannelOverlap(2, 1) {
		t.Fatal("overlap not symmetric")
	}
	prev := 1.1
	for d := 0; d <= 5; d++ {
		ov := ChannelOverlap(1, 1+d)
		if ov >= prev {
			t.Fatalf("overlap not decreasing at distance %d", d)
		}
		prev = ov
	}
}

func TestChannelClamping(t *testing.T) {
	_, m := newMedium(1)
	lo := m.NewRadio("lo", geo.Pt(0, 0), -3, 15)
	hi := m.NewRadio("hi", geo.Pt(0, 0), 99, 15)
	if lo.Channel != MinChannel || hi.Channel != MaxChannel {
		t.Fatalf("channels not clamped: %d, %d", lo.Channel, hi.Channel)
	}
}

func TestTransmitDelivers(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(5, 0), 6, 15)
	// Receipt.Tx is valid only during OnReceive, so the handler checks
	// the transmission and its payload there and keeps the rest.
	var got []Receipt
	var tx *Transmission
	b.OnReceive = func(r Receipt) {
		if r.Tx != tx || r.Tx.Payload() != "hello" {
			t.Error("wrong transmission or payload")
		}
		got = append(got, r)
	}
	tx, err := m.Transmit(a, 8000, PickRate(m.SNRAtDBm(a, b)), "hello")
	if err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if len(got) != 1 {
		t.Fatalf("receipts = %d, want 1", len(got))
	}
	if r := got[0]; !r.OK {
		t.Fatalf("close-range frame not decoded: SINR=%v", r.SINRdB())
	}
	if m.Delivered != 1 || m.Lost != 0 || m.Sent != 1 {
		t.Fatalf("stats = sent %d delivered %d lost %d", m.Sent, m.Delivered, m.Lost)
	}
}

func TestAirtime(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	m.NewRadio("b", geo.Pt(5, 0), 6, 15)
	tx, err := m.Transmit(a, 11_000_000, Rate{11, 12}, nil) // 1 second at 11 Mbps
	if err != nil {
		t.Fatal(err)
	}
	if at := tx.Airtime(); at != sim.Second {
		t.Fatalf("airtime = %v, want 1s", at)
	}
	for k.Step() {
	}
	if k.Now() != sim.Second {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestSenderDoesNotReceiveOwnFrame(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	selfRx := false
	a.OnReceive = func(Receipt) { selfRx = true }
	if _, err := m.Transmit(a, 100, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if selfRx {
		t.Fatal("sender received its own frame")
	}
}

func TestFarReceiverFailsToDecode(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(95, 95), 6, 15)
	var r *Receipt
	b.OnReceive = func(rc Receipt) { r = &rc }
	// Force the highest rate regardless of SNR: should fail at ~134 m.
	if _, err := m.Transmit(a, 8000, Rate{11, 12}, nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if r == nil {
		t.Fatal("no receipt")
	}
	if r.OK {
		t.Fatalf("distant 11 Mbps frame decoded: SINR=%v", r.SINRdB())
	}
	if m.Lost != 1 {
		t.Fatalf("lost = %d", m.Lost)
	}
}

func TestCollisionCausesLoss(t *testing.T) {
	k, m := newMedium(1)
	// Two senders equidistant from the receiver on the same channel:
	// SINR ~ 0 dB, below every threshold.
	a := m.NewRadio("a", geo.Pt(0, 50), 6, 15)
	c := m.NewRadio("c", geo.Pt(100, 50), 6, 15)
	b := m.NewRadio("b", geo.Pt(50, 50), 6, 15)
	oks := 0
	fails := 0
	b.OnReceive = func(r Receipt) {
		if r.OK {
			oks++
		} else {
			fails++
		}
	}
	if _, err := m.Transmit(a, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(c, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if oks != 0 || fails != 2 {
		t.Fatalf("collision outcome: ok=%d fail=%d, want 0/2", oks, fails)
	}
}

func TestOrthogonalChannelsDoNotCollide(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(45, 50), 1, 15)
	c := m.NewRadio("c", geo.Pt(55, 50), 11, 15)
	b1 := m.NewRadio("b1", geo.Pt(44, 50), 1, 15)
	b2 := m.NewRadio("b2", geo.Pt(56, 50), 11, 15)
	ok1, ok2 := false, false
	b1.OnReceive = func(r Receipt) { ok1 = r.OK }
	b2.OnReceive = func(r Receipt) { ok2 = r.OK }
	if _, err := m.Transmit(a, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(c, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !ok1 || !ok2 {
		t.Fatalf("orthogonal channels interfered: ok1=%v ok2=%v", ok1, ok2)
	}
}

func TestAdjacentChannelPartialInterference(t *testing.T) {
	// An adjacent-channel (d=1) interferer leaks 73% of its power; a d=5
	// interferer leaks none. The adjacent case should produce lower SINR.
	run := func(interfererChannel int) float64 {
		k, m := newMedium(1)
		a := m.NewRadio("a", geo.Pt(48, 50), 6, 15)
		b := m.NewRadio("b", geo.Pt(52, 50), 6, 15)
		i := m.NewRadio("i", geo.Pt(60, 50), interfererChannel, 15)
		var sinr float64
		b.OnReceive = func(r Receipt) {
			if r.Tx.Src.ID == a.ID {
				sinr = r.SINRdB()
			}
		}
		if _, err := m.Transmit(i, 80000, Rates[0], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Transmit(a, 8000, Rates[3], nil); err != nil {
			t.Fatal(err)
		}
		for k.Step() {
		}
		return sinr
	}
	adj := run(7)
	far := run(11)
	if adj >= far {
		t.Fatalf("adjacent-channel SINR %v should be below orthogonal %v", adj, far)
	}
}

func TestBusyCarrierSense(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(5, 0), 6, 15)
	if m.Busy(b) {
		t.Fatal("idle medium reported busy")
	}
	if _, err := m.Transmit(a, 1_000_000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	// Within the sensing delay the transmission is not yet detectable.
	if m.Busy(b) {
		t.Fatal("carrier sense detected a transmission inside the vulnerable window")
	}
	k.RunUntil(k.Now() + 2*SensingDelay)
	if !m.Busy(b) {
		t.Fatal("medium with active close transmission reported idle")
	}
	if m.ActiveTransmissions() != 1 {
		t.Fatalf("active = %d", m.ActiveTransmissions())
	}
	for k.Step() {
	}
	if m.Busy(b) {
		t.Fatal("medium busy after all transmissions ended")
	}
}

func TestZeroBitsRejected(t *testing.T) {
	_, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	if _, err := m.Transmit(a, 0, Rates[0], nil); err == nil {
		t.Fatal("zero-bit transmission accepted")
	}
}

func TestRangingAccuracy(t *testing.T) {
	_, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(12, 0), 6, 15)
	est := m.EstimateDistance(a, b)
	if math.Abs(est-12) > 0.01 {
		t.Fatalf("ranging estimate = %v, want 12", est)
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	_, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	near := m.NewRadio("n", geo.Pt(3, 0), 6, 15)
	far := m.NewRadio("f", geo.Pt(60, 0), 6, 15)
	if m.SNRAtDBm(a, near) <= m.SNRAtDBm(a, far) {
		t.Fatal("SNR should fall with distance")
	}
}

func TestReceiptOrderDeterministicAndAscending(t *testing.T) {
	run := func() []int {
		k, m := newMedium(1)
		a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
		var order []int
		for i := 0; i < 12; i++ {
			r := m.NewRadio("r", geo.Pt(float64(i+1), 0), 6, 15)
			r.OnReceive = func(rc Receipt) { order = append(order, r.ID) }
		}
		if _, err := m.Transmit(a, 800, Rates[0], nil); err != nil {
			t.Fatal(err)
		}
		for k.Step() {
		}
		return order
	}
	first := run()
	if len(first) != 12 {
		t.Fatalf("receipts = %d, want 12", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("receipts not in ascending ID order: %v", first)
		}
	}
	for trial := 0; trial < 10; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("trial %d: receipt count varies", trial)
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d: order varies: %v vs %v", trial, got, first)
				}
			}
		}
	}
}

func TestSetPosKeepsSpatialIndexCurrent(t *testing.T) {
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 1000, 1000)))
	m := NewMedium(k, e, WithRxCutoffDBm(-95), WithGridCellM(20))
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(900, 900), 6, 15)
	got := 0
	b.OnReceive = func(Receipt) { got++ }
	if _, err := m.Transmit(a, 800, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if got != 0 {
		t.Fatal("out-of-range radio received a frame despite the cutoff")
	}
	// Walk b next to a: the grid must see the move.
	b.SetPos(geo.Pt(5, 0))
	if _, err := m.Transmit(a, 800, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if got != 1 {
		t.Fatalf("moved radio receipts = %d, want 1", got)
	}
	// And walk it away again.
	b.SetPos(geo.Pt(900, 900))
	if _, err := m.Transmit(a, 800, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if got != 1 {
		t.Fatalf("receipts after moving away = %d, want 1", got)
	}
}

func TestIndexedMatchesFullScanPhysics(t *testing.T) {
	// With the cutoff disabled, the channel-partitioned medium must hear
	// exactly what a scan of every attached radio does: the candidate
	// sets match the oracle after every kernel step, every frame is
	// received by exactly the oracle's hearers, and checking perturbs no
	// receipt.
	type outcome struct {
		id   int
		sinr float64
		ok   bool
	}
	run := func(checked bool) ([]outcome, map[uint64][]int, *Medium, []*Radio) {
		k := sim.New(3)
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 300, 300)))
		m := NewMedium(k, e)
		var radios []*Radio
		var out []outcome
		heard := make(map[uint64][]int)
		for i := 0; i < 40; i++ {
			ch := 1 + (i*3)%11
			r := m.NewRadio("r", geo.Pt(float64(i%8)*35, float64(i/8)*35), ch, 15)
			r.OnReceive = func(rc Receipt) {
				out = append(out, outcome{r.ID, rc.SINRdB(), rc.OK})
				heard[rc.Tx.Seq] = append(heard[rc.Tx.Seq], r.ID)
			}
			radios = append(radios, r)
		}
		for i := 0; i < 6; i++ {
			src := radios[i*7]
			k.Schedule(sim.Time(i)*100*sim.Microsecond, "tx", func() {
				if _, err := m.Transmit(src, 4000, Rates[0], nil); err != nil {
					t.Error(err)
				}
			})
		}
		if checked {
			runChecked(t, k, m, watchMemo(m), 0)
		} else {
			for k.Step() {
			}
		}
		return out, heard, m, radios
	}
	checked, heard, m, radios := run(true)
	plain, _, _, _ := run(false)
	if len(heard) != 6 {
		t.Fatalf("%d frames heard, want 6", len(heard))
	}
	// The world is static, so the oracle at the end is the oracle at
	// every delivery.
	for i := 0; i < 6; i++ {
		seq, src := uint64(i+1), radios[i*7]
		var want []int
		for _, r := range refHearers(m, src) {
			want = append(want, r.ID)
		}
		if fmt.Sprint(heard[seq]) != fmt.Sprint(want) {
			t.Fatalf("frame %d from radio %d heard by %v, reference %v", seq, src.ID, heard[seq], want)
		}
	}
	if len(checked) != len(plain) {
		t.Fatalf("receipt counts differ: checked %d vs unchecked %d", len(checked), len(plain))
	}
	for i := range checked {
		if checked[i] != plain[i] {
			t.Fatalf("receipt %d differs: checked %+v vs unchecked %+v", i, checked[i], plain[i])
		}
	}
}

func TestCutoffSkipsOnlyInaudibleRadios(t *testing.T) {
	// A cutoff of -95 dBm must not change whether nearby frames decode.
	run := func(opts ...MediumOption) (delivered, lost uint64) {
		k := sim.New(5)
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
		m := NewMedium(k, e, opts...)
		var radios []*Radio
		for i := 0; i < 30; i++ {
			r := m.NewRadio("r", geo.Pt(float64(i%6)*8, float64(i/6)*8), 6, 15)
			r.OnReceive = func(Receipt) {}
			radios = append(radios, r)
		}
		for i := 0; i < 5; i++ {
			src := radios[i*6]
			k.Schedule(sim.Time(i)*sim.Millisecond, "tx", func() {
				if _, err := m.Transmit(src, 4000, Rates[0], nil); err != nil {
					t.Error(err)
				}
			})
		}
		for k.Step() {
		}
		return m.Delivered, m.Lost
	}
	d1, l1 := run()
	d2, l2 := run(WithRxCutoffDBm(-95))
	if d1 != d2 || l1 != l2 {
		t.Fatalf("cutoff changed close-range outcomes: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
}

// sameBacking reports whether two candidate slices share a backing
// array — i.e. the cache was reused rather than rebuilt.
func sameBacking(a, b []*Radio) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func TestSetPosUnchangedPositionIsFree(t *testing.T) {
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
	m := NewMedium(k, e, WithRxCutoffDBm(-95))
	a := m.NewRadio("a", geo.Pt(10, 10), 6, 15)
	m.NewRadio("b", geo.Pt(20, 10), 6, 15)
	c1 := m.candidatesFor(a)
	a.SetPos(a.Pos) // no-op move: must not touch the grid or any cache
	if !sameBacking(c1, m.candidatesFor(a)) {
		t.Fatal("SetPos with unchanged position invalidated the candidate cache")
	}
}

func TestCellGranularInvalidation(t *testing.T) {
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
	// 15 dBm at a -60 dBm cutoff hears out to ~14.7 m; 10 m cells keep
	// the cover box tight around b so the cases below are unambiguous.
	m := NewMedium(k, e, WithRxCutoffDBm(-60), WithGridCellM(10))
	b := m.NewRadio("b", geo.Pt(5, 5), 6, 15)
	near := m.NewRadio("near", geo.Pt(15, 5), 6, 15) // in range
	edge := m.NewRadio("edge", geo.Pt(25, 5), 6, 15) // in b's box, out of range
	far := m.NewRadio("far", geo.Pt(95, 95), 6, 15)  // far outside b's box
	_ = near

	c1 := m.candidatesFor(b)
	// The candidate set is cell-conservative: edge sits in a covered
	// cell, so it is listed even though it is beyond hearing range.
	found := false
	for _, r := range c1 {
		if r == edge {
			found = true
		}
	}
	if !found {
		t.Fatal("cell-conservative candidate set should include in-box out-of-range radios")
	}

	// A within-cell move far away leaves b's cache untouched.
	far.SetPos(geo.Pt(96, 96))
	if !sameBacking(c1, m.candidatesFor(b)) {
		t.Fatal("within-cell move of an unrelated radio invalidated b's cache")
	}
	// Even a cell-crossing move leaves b untouched when both cells are
	// outside b's cover.
	far.SetPos(geo.Pt(85, 85))
	if !sameBacking(c1, m.candidatesFor(b)) {
		t.Fatal("far cell crossing invalidated b's cache")
	}
	// A crossing between two cells both inside b's cover preserves the
	// cover's union, so the cache also survives.
	near.SetPos(geo.Pt(5, 15))
	if !sameBacking(c1, m.candidatesFor(b)) {
		t.Fatal("union-preserving crossing inside the cover invalidated b's cache")
	}
	// But a crossing out of b's cover rebuilds it.
	edge.SetPos(geo.Pt(41, 5))
	c2 := m.candidatesFor(b)
	if sameBacking(c1, c2) {
		t.Fatal("crossing out of the cover did not invalidate b's cache")
	}
	for _, r := range c2 {
		if r == edge {
			t.Fatal("rebuilt candidate set still lists the departed radio")
		}
	}
	// And b's own cell crossing rebuilds b's cache (anchor moved).
	c3 := m.candidatesFor(b)
	b.SetPos(geo.Pt(15, 15))
	if sameBacking(c3, m.candidatesFor(b)) {
		t.Fatal("b's own cell crossing did not invalidate its cache")
	}
}

func TestDeliveryAppliesExactRangeAtUseTime(t *testing.T) {
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
	m := NewMedium(k, e, WithRxCutoffDBm(-60), WithGridCellM(10))
	b := m.NewRadio("b", geo.Pt(5, 5), 6, 15)
	near := m.NewRadio("near", geo.Pt(15, 5), 6, 15) // ~10 m: audible
	edge := m.NewRadio("edge", geo.Pt(25, 5), 6, 15) // ~20 m: in box, below cutoff
	nearGot, edgeGot := 0, 0
	near.OnReceive = func(Receipt) { nearGot++ }
	edge.OnReceive = func(Receipt) { edgeGot++ }
	if _, err := m.Transmit(b, 800, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if nearGot != 1 {
		t.Fatalf("in-range radio receipts = %d, want 1", nearGot)
	}
	if edgeGot != 0 {
		t.Fatal("radio beyond the cutoff range received a receipt despite being in the candidate superset")
	}
}

// TestMobileInvalidationModesAgree drives a mobile workload — moves
// within and across cells, a mid-run attach, overlapping transmissions —
// and requires the cell-granular caches to
// match the brute-force oracle after every kernel step, with a receipt
// stream bit-identical to an unchecked run.
func TestMobileInvalidationModesAgree(t *testing.T) {
	run := func(checked bool) []string {
		k := sim.New(3)
		e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 400, 400)))
		m := NewMedium(k, e, WithRxCutoffDBm(-95), WithGridCellM(25))
		var log []string
		var radios []*Radio
		rng := k.Rand()
		for i := 0; i < 24; i++ {
			id := i
			r := m.NewRadio(fmt.Sprintf("r%d", i),
				geo.Pt(rng.Float64()*400, rng.Float64()*400), 1+i%11, 15)
			r.OnReceive = func(rc Receipt) {
				log = append(log, fmt.Sprintf("%d rx%d tx%d ok=%v rssi=%x sinr=%x",
					k.Now(), id, rc.Tx.Seq, rc.OK,
					math.Float64bits(rc.RSSIdBm), math.Float64bits(rc.SINRdB())))
			}
			radios = append(radios, r)
		}
		// Movers: every radio steps every 200 us; some steps cross cells.
		for i, r := range radios {
			r := r
			dx, dy := 1.0+float64(i%7), 1.0-float64(i%5)
			stop := k.Ticker(200*sim.Microsecond, "move", func() {
				r.SetPos(geo.Pt(
					math.Mod(r.Pos.X+dx+400, 400),
					math.Mod(r.Pos.Y+dy+400, 400)))
			})
			defer stop()
		}
		// Overlapping traffic.
		for i := range radios {
			src := radios[i]
			k.Schedule(sim.Time(i)*150*sim.Microsecond, "tx", func() {
				if _, err := m.Transmit(src, 2000, Rates[0], nil); err != nil {
					t.Error(err)
				}
			})
		}
		// A mid-run attach.
		k.Schedule(2*sim.Millisecond, "attach", func() {
			r := m.NewRadio("late", geo.Pt(200, 200), 6, 15)
			r.OnReceive = func(rc Receipt) {
				log = append(log, fmt.Sprintf("%d late tx%d ok=%v", k.Now(), rc.Tx.Seq, rc.OK))
			}
			if _, err := m.Transmit(r, 2000, Rates[0], nil); err != nil {
				t.Error(err)
			}
		})
		if checked {
			runChecked(t, k, m, watchMemo(m), 8*sim.Millisecond)
		} else {
			k.RunUntil(8 * sim.Millisecond)
		}
		return log
	}
	checked, plain := run(true), run(false)
	if len(checked) != len(plain) {
		t.Fatalf("receipt counts differ: checked %d vs unchecked %d", len(checked), len(plain))
	}
	for i := range checked {
		if checked[i] != plain[i] {
			t.Fatalf("receipt %d differs:\nchecked:   %s\nunchecked: %s", i, checked[i], plain[i])
		}
	}
	if len(checked) == 0 {
		t.Fatal("workload produced no receipts")
	}
}

// TestMidRunAttachJoinsHearerRows: radios join a running medium after
// every sender has built its hearer row — one from a plain event, one
// from inside a receipt callback in the middle of a delivery round — and
// must hear every frame that starts after they join, with the cutoff
// off and on. The hearer oracles hold after every kernel step.
func TestMidRunAttachJoinsHearerRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []MediumOption
	}{
		{"no-cutoff", nil},
		{"cutoff", []MediumOption{WithRxCutoffDBm(-95), WithGridCellM(20)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
			m := NewMedium(k, e, tc.opts...)
			var senders []*Radio
			for i := 0; i < 4; i++ {
				r := m.NewRadio(fmt.Sprintf("s%d", i), geo.Pt(20+10*float64(i), 20), 6, 15)
				r.OnReceive = func(Receipt) {}
				senders = append(senders, r)
			}
			heard := map[string][]uint64{}
			join := func(name string, p geo.Point) {
				r := m.NewRadio(name, p, 6, 15)
				r.OnReceive = func(rc Receipt) {
					if !rc.OK {
						t.Errorf("%s lost frame %d", name, rc.Tx.Seq)
					}
					heard[name] = append(heard[name], rc.Tx.Seq)
				}
			}
			// Three rounds, one frame per sender 2 ms apart, so frames
			// never overlap: frames 1-4 build every sender's row, 5-8
			// and 9-12 follow the joins.
			for round := 0; round < 3; round++ {
				for i, s := range senders {
					at := sim.Time(round*10+2*i) * sim.Millisecond
					k.Schedule(at, "tx", func() {
						if _, err := m.Transmit(s, 800, Rates[0], nil); err != nil {
							t.Error(err)
						}
					})
				}
			}
			k.Schedule(8*sim.Millisecond, "attach", func() { join("plain", geo.Pt(25, 30)) })
			// s1 receiving frame 5 (s0's second) attaches a radio in the
			// middle of that frame's delivery round.
			senders[1].OnReceive = func(rc Receipt) {
				if rc.Tx.Seq == 5 {
					join("callback", geo.Pt(35, 30))
				}
			}
			runChecked(t, k, m, watchMemo(m), 0)
			want := map[string]string{
				"plain":    "[5 6 7 8 9 10 11 12]",
				"callback": "[6 7 8 9 10 11 12]",
			}
			for name, w := range want {
				if got := fmt.Sprint(heard[name]); got != w {
					t.Errorf("%s heard frames %s, want %s", name, got, w)
				}
			}
		})
	}
}

func TestMidDeliveryMoveDoesNotChangeMembership(t *testing.T) {
	// An OnReceive callback that synchronously moves a third radio
	// across the hearing-range boundary must not change who receives
	// this delivery round: the range decision is frozen when delivery
	// starts.
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 200)))
	m := NewMedium(k, e, WithRxCutoffDBm(-60), WithGridCellM(10))
	// 15 dBm at -60 dBm cutoff: range ~14.7 m.
	a := m.NewRadio("a", geo.Pt(5, 5), 6, 15)
	b := m.NewRadio("b", geo.Pt(10, 5), 6, 15)              // in range, lower ID than c
	c := m.NewRadio("c", geo.Pt(25, 5), 6, 15)              // in a's cover box, out of range
	b.OnReceive = func(Receipt) { c.SetPos(geo.Pt(12, 5)) } // yank c into range
	cGot := 0
	c.OnReceive = func(Receipt) { cGot++ }
	if _, err := m.Transmit(a, 2000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if cGot != 0 {
		t.Fatalf("radio out of range at delivery start received %d receipts", cGot)
	}
}

// TestBusyMatchesDBmPredicate holds carrier sense in milliwatts to the
// dBm predicate it replaces, at CSThresholdDBm and at any threshold
// senses could be given with its band: random and whole thresholds in
// [-200, 50] dBm, ±Inf, NaN and -3300 dBm (whose milliwatt value
// underflows to zero). Energies are 0, negative, NaN and extremes, t·(1±k·2⁻⁵²)
// around the threshold t in milliwatts, and the floats just inside and
// just outside the band t·(1±1e-9) where Busy switches between the two
// comparisons.
func TestBusyMatchesDBmPredicate(t *testing.T) {
	thresholds := []float64{CSThresholdDBm, math.Inf(1), math.Inf(-1), math.NaN(), -3300}
	for d := -200; d <= 50; d++ {
		thresholds = append(thresholds, float64(d))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		thresholds = append(thresholds, -200+250*rng.Float64())
	}
	for _, th := range thresholds {
		lo, hi := linearBand(th)
		mw := env.DBmToMilliwatts(th)
		energies := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1),
			math.SmallestNonzeroFloat64, 1e-300, 1, 1e300, mw}
		for k := 1; k <= 8; k++ {
			energies = append(energies, mw*(1+float64(k)*0x1p-52), mw*(1-float64(k)*0x1p-52))
		}
		for _, edge := range []float64{lo, hi, mw * (1 - thresholdBand), mw * (1 + thresholdBand)} {
			energies = append(energies, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		for _, e := range energies {
			if got, want := senses(e, th, lo, hi), refBusy(e, th); got != want {
				t.Fatalf("threshold %v dBm, energy %v mW: Busy %v, dBm predicate %v", th, e, got, want)
			}
		}
	}
	// The fast band is in use for the carrier-sense threshold.
	if mw := env.DBmToMilliwatts(CSThresholdDBm); !(0 < csLo && csLo < mw && mw < csHi && !math.IsInf(csHi, 1)) {
		t.Fatalf("band for %d dBm is (%v, %v), want a finite band around %v", CSThresholdDBm, csLo, csHi, mw)
	}
}

// TestDecodeMatchesDBmPredicate holds the linear decode decision to the
// dB comparison it replaces, 10·Log10(r) >= MinSINRdB, for every rate's
// threshold and for ±Inf, NaN and -4000 dB (whose linear value
// underflows to zero). Ratios are the linear threshold t, t·(1±1e-9),
// the band edges, the floats next to each of those, and 0, a denormal,
// +Inf and NaN.
func TestDecodeMatchesDBmPredicate(t *testing.T) {
	thresholds := []float64{math.Inf(1), math.Inf(-1), math.NaN(), -4000}
	for _, r := range Rates {
		thresholds = append(thresholds, r.MinSINRdB)
	}
	m := &Medium{}
	near := 0 // ratios at t itself or one float away that decode differently from a plain r >= t
	for _, th := range thresholds {
		lo, hi := m.decodeBand(th)
		lin := env.DBmToMilliwatts(th)
		ratios := []float64{0, 0x1p-1070, math.Inf(1), math.NaN()}
		for _, x := range []float64{lin, lin * (1 - thresholdBand), lin * (1 + thresholdBand), lo, hi} {
			ratios = append(ratios, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
		for _, r := range ratios {
			want := 10*math.Log10(r) >= th
			if got := decodes(r, th, lo, hi); got != want {
				t.Fatalf("threshold %v dB, ratio %v: decodes %v, dB predicate %v", th, r, got, want)
			}
			if d := math.Abs(r - lin); d <= 2*math.Abs(math.Nextafter(lin, math.Inf(1))-lin) && want != (r >= lin) {
				near++
			}
		}
	}
	// Without the band, some ratio next to a threshold would take the
	// wrong side: the comparison in dB is not the comparison in linear.
	if near == 0 {
		t.Fatal("no ratio near a threshold separates the dB predicate from r >= t; the test no longer exercises the band")
	}
	// The fast band is in use for every rate.
	for _, r := range Rates {
		if lo, hi := m.decodeBand(r.MinSINRdB); !(0 < lo && lo < hi && !math.IsInf(hi, 1)) {
			t.Fatalf("band for %v dB is (%v, %v), want a finite band", r.MinSINRdB, lo, hi)
		}
	}
}
