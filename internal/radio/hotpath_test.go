package radio

import (
	"math"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
)

// TestOutOfOrderCompletionOverlapping covers the Seq-indexed removal in
// finish: three transmissions overlap in the air but complete in a
// different order than they started (later, shorter frames land first),
// so each completion removes from the middle or tail of the active set,
// never just the head.
func TestOutOfOrderCompletionOverlapping(t *testing.T) {
	k, m := newMedium(1)
	// Three senders far apart on orthogonal channels so every frame
	// decodes cleanly at its nearby receiver regardless of the others.
	pairs := []struct {
		ch   int
		x    float64
		bits int
	}{
		{1, 0, 24000}, // longest: starts first, finishes last
		{6, 40, 8000}, // finishes second
		{11, 80, 800}, // shortest: starts last, finishes first
	}
	var order []int
	for i, p := range pairs {
		i := i
		src := m.NewRadio("src", geo.Pt(p.x, 0), p.ch, 15)
		dst := m.NewRadio("dst", geo.Pt(p.x+3, 0), p.ch, 15)
		dst.OnReceive = func(r Receipt) {
			if !r.OK {
				t.Errorf("pair %d frame lost: SINR=%v", i, r.SINRdB())
			}
			order = append(order, i)
		}
		bits := p.bits
		k.Schedule(sim.Time(i)*10*sim.Microsecond, "tx", func() {
			if _, err := m.Transmit(src, bits, Rates[0], nil); err != nil {
				t.Error(err)
			}
		})
	}
	// All three must be in the air simultaneously at some point.
	overlapped := false
	k.Schedule(100*sim.Microsecond, "probe", func() {
		overlapped = m.ActiveTransmissions() == 3
	})
	for k.Step() {
	}
	if !overlapped {
		t.Fatal("transmissions did not overlap; the test no longer exercises out-of-order removal")
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("completion order = %v, want [2 1 0] (reverse of start order)", order)
	}
	if m.ActiveTransmissions() != 0 {
		t.Fatalf("active = %d after drain, want 0", m.ActiveTransmissions())
	}
	if m.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3", m.Delivered)
	}
}

// TestLedgerRecycledAcrossTransmissions: sequential transmissions reuse
// pooled interference ledgers, and a recycled ledger must not leak the
// previous tenancy's interference into a new transmission's SINR.
func TestLedgerRecycledAcrossTransmissions(t *testing.T) {
	k, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(5, 0), 6, 15)
	jam := m.NewRadio("jam", geo.Pt(6, 0), 6, 15)
	var sinrs []float64
	b.OnReceive = func(r Receipt) {
		if r.Tx.Src == a {
			sinrs = append(sinrs, r.SINRdB())
		}
	}
	// Round 1: a's frame suffers co-channel interference from jam.
	if _, err := m.Transmit(a, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(jam, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	// Round 2: a alone — its (recycled) ledger must read zero.
	if _, err := m.Transmit(a, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if len(sinrs) != 2 {
		t.Fatalf("receipts at b = %d, want 2", len(sinrs))
	}
	if !(sinrs[1] > sinrs[0]+20) {
		t.Fatalf("clean retransmission SINR %.1f dB not far above jammed %.1f dB; ledger state leaked across recycling", sinrs[1], sinrs[0])
	}
	clean := m.SNRAtDBm(a, b)
	if math.Abs(sinrs[1]-clean) > 1e-9 {
		t.Fatalf("interference-free SINR %.12f != SNR %.12f", sinrs[1], clean)
	}
}

// TestGainCacheInvalidatesOnMove: memoized link gains must follow SetPos
// on either endpoint, for a hearer in the sender's row and for a
// receiver outside it, and a move must cost exactly one miss per pair
// measured again: the misses the dense per-pair table would count.
func TestGainCacheInvalidatesOnMove(t *testing.T) {
	_, m := newMedium(1)
	a := m.NewRadio("a", geo.Pt(0, 0), 6, 15)
	b := m.NewRadio("b", geo.Pt(10, 0), 6, 15)
	// Channel 11 is five channels from a's: c never hears a, so the
	// a->c gain lives outside a's row.
	c := m.NewRadio("c", geo.Pt(0, 10), 11, 15)
	measure := func(dst *Radio, wantMisses uint64) float64 {
		t.Helper()
		before := m.GainMisses
		rssi := m.MeasureRSSI(a, dst)
		if missed := m.GainMisses - before; missed != wantMisses {
			t.Fatalf("measuring %s missed %d times, want %d", dst.Name, missed, wantMisses)
		}
		return rssi
	}
	near, off := measure(b, 1), measure(c, 1)
	if again := measure(b, 0); again != near {
		t.Fatalf("repeated measurement differs: %v vs %v", again, near)
	}
	if len(a.row) != 1 || a.row[0].rx != b {
		t.Fatalf("a's row holds %d hearers, want b alone", len(a.row))
	}
	b.SetPos(geo.Pt(40, 0))
	far := measure(b, 1)
	if far >= near {
		t.Fatalf("RSSI did not drop after receiver moved away: near=%v far=%v", near, far)
	}
	measure(b, 0)
	if got := measure(c, 0); got != off {
		t.Fatalf("off-row gain changed when an unrelated radio moved: %v vs %v", got, off)
	}
	a.SetPos(geo.Pt(-30, 0))
	if farther := measure(b, 1); farther >= far {
		t.Fatalf("RSSI did not drop after sender moved away: far=%v farther=%v", far, farther)
	}
	if offFarther := measure(c, 1); offFarther >= off {
		t.Fatalf("off-row RSSI did not drop after sender moved away: %v then %v", off, offFarther)
	}
	measure(b, 0)
	measure(c, 0)
	c.SetPos(geo.Pt(-30, 50))
	measure(c, 1)
	measure(c, 0)
	measure(b, 0)
}

// TestMediumDenseAllocsBudget is the allocation regression guard for
// the BenchmarkMediumDense* workload shape: after warmup, a burst of 64
// overlapping transmissions across a dense indexed medium must stay
// within a small allocation budget (approximately one Transmission
// record per frame — no per-event, per-ledger, or per-pair-math
// allocations). The budget is ~3x the measured steady state (~165) to
// absorb incidental growth, while the pre-pooling code (~1850) fails it
// by an order of magnitude.
func TestMediumDenseAllocsBudget(t *testing.T) {
	k, m, radios := denseWorld(500, allChannels, denseIndexed...)
	iter := 0
	burst := func() {
		for j := 0; j < 64; j++ {
			src := radios[(iter*64+j*17)%len(radios)]
			k.Schedule(sim.Time(j)*50*sim.Microsecond, "bench.tx", func() {
				if _, err := m.Transmit(src, 2000, Rates[0], nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		for k.Step() {
		}
		iter++
	}
	for _, r := range radios {
		m.candidatesFor(r) // build every sender's candidate cache once
	}
	for i := 0; i < 3; i++ {
		burst() // warm the ledger pool, event pool, and gain caches
	}
	allocs := testing.AllocsPerRun(5, burst)
	const budget = 520
	t.Logf("dense burst: %.0f allocs/run (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("dense burst allocated %.0f/run, budget %d — the PHY hot path has regressed", allocs, budget)
	}
}

// TestMediumBusyAllocsNothing pins BenchmarkMediumBusyDense500's
// polling at zero allocations. With the frame stream stopped, 150 slots
// (3 ms) of polling carry every in-flight frame past SensingDelay and
// its end, so the sweeps exercise memo hits, memo invalidation by
// finish, and recomputes.
func TestMediumBusyAllocsNothing(t *testing.T) {
	s, poll := busyDense()
	s.stop = true
	busy := 0
	allocs := testing.AllocsPerRun(150, func() { busy += poll() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	if busy == 0 || s.m.ActiveTransmissions() != 0 {
		t.Fatalf("%d busy polls, %d frames left in the air: the sweep no longer exercises carrier sense", busy, s.m.ActiveTransmissions())
	}
	if allocs != 0 {
		t.Fatalf("carrier-sense polling allocated %v times per slot, want 0", allocs)
	}
}

// TestSenderRowBuiltOnce: in a static 300-radio world, once every radio
// has sent a frame, every sender's hearer row stays the one it built —
// same array, same geometry generation — through further overlapping
// traffic, and that traffic allocates nothing beyond each frame's
// Transmission record. A radio that then joins out of range makes the
// senders rebuild their rows, which must keep every gain they hold.
func TestSenderRowBuiltOnce(t *testing.T) {
	k, m, radios := denseWorld(300, allChannels, denseIndexed...)
	// One closure for every frame, so sending allocates only what the
	// medium does.
	tx := func(a any) {
		if _, err := m.Transmit(a.(*Radio), 2000, Rates[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	send := func(src *Radio, at sim.Time) { k.ScheduleFn(at, "test.tx", tx, src) }
	for _, r := range radios {
		send(r, 0)
		for k.Step() {
		}
	}
	type built struct {
		first *hearer
		n     int
		gen   uint64
	}
	rows := make([]built, len(radios))
	for i, r := range radios {
		if len(r.row) == 0 || r.rowGen != m.geoGen {
			t.Fatalf("radio %d has no current row after sending (%d hearers, gen %d of %d)", r.ID, len(r.row), r.rowGen, m.geoGen)
		}
		if cap(r.row) != len(r.row) {
			t.Fatalf("radio %d row holds %d hearers in an array of %d", r.ID, len(r.row), cap(r.row))
		}
		rows[i] = built{&r.row[0], len(r.row), r.rowGen}
	}
	const frames = 64
	iter := 0
	burst := func() {
		for j := 0; j < frames; j++ {
			send(radios[(iter*frames+j*17)%len(radios)], sim.Time(j)*50*sim.Microsecond)
		}
		for k.Step() {
		}
		iter++
	}
	burst() // warm the ledger and event pools for 64 overlapping frames
	allocs := testing.AllocsPerRun(5, burst)
	if allocs > frames {
		t.Fatalf("a burst of %d frames allocated %v times, want at most one Transmission per frame", frames, allocs)
	}
	for i, r := range radios {
		if got := (built{&r.row[0], len(r.row), r.rowGen}); got != rows[i] {
			t.Fatalf("radio %d rebuilt its row: %+v, built %+v", r.ID, got, rows[i])
		}
	}

	// A radio joins out of everyone's range (316 m at 15 dBm and the
	// -100 dBm cutoff; the world ends at y = 281 m). Every row is
	// rebuilt, and each keeps its filled gains, so the senders' frames
	// miss none.
	m.NewRadio("far", geo.Pt(900, 900), 6, 15)
	misses := m.GainMisses
	burst()
	if missed := m.GainMisses - misses; missed != 0 {
		t.Fatalf("rows rebuilt after an unrelated attach missed %d link gains, want 0", missed)
	}
	rebuilt := 0
	for i, r := range radios {
		if r.rowGen == m.geoGen {
			rebuilt++
			if len(r.row) != rows[i].n {
				t.Fatalf("radio %d's rebuilt row holds %d hearers, built with %d", r.ID, len(r.row), rows[i].n)
			}
		}
	}
	if rebuilt == 0 {
		t.Fatal("no row was rebuilt after the attach")
	}
}

// TestSenderRowPinnedDuringDelivery: while finish delivers a frame from
// its sender's row, a receipt callback changes the geometry and then
// starts a frame that rebuilds the same sender's row (its second frame
// is still in the air). The delivery must still reach its frozen
// receiver set — every original hearer exactly once — so the rebuild
// has to leave the pinned array alone.
func TestSenderRowPinnedDuringDelivery(t *testing.T) {
	k := sim.New(1)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 400, 400)))
	m := NewMedium(k, e, WithRxCutoffDBm(-80), WithGridCellM(20))
	src := m.NewRadio("src", geo.Pt(50, 50), 6, 15)
	var rx []*Radio
	got := map[*Radio]int{}
	for i := 0; i < 4; i++ {
		r := m.NewRadio("rx", geo.Pt(55+float64(i), 50), 6, 15)
		rx = append(rx, r)
	}
	other := m.NewRadio("other", geo.Pt(300, 300), 1, 15)
	// The short frame is known by its Seq: its record is recycled when
	// its delivery ends, and a later frame may reuse it.
	var shortSeq uint64
	for _, r := range rx {
		r := r
		r.OnReceive = func(rc Receipt) {
			if rc.Tx.Seq != shortSeq {
				return
			}
			got[r]++
			if r == rx[0] {
				rx[1].SetPos(geo.Pt(390, 390)) // out of src's range: geoGen moves
				if _, err := m.Transmit(other, 800, Rates[0], nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := m.Transmit(src, 8000, Rates[0], nil); err != nil {
		t.Fatal(err)
	}
	short, err := m.Transmit(src, 800, Rates[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	shortSeq = short.Seq
	for k.Step() {
	}
	for i, r := range rx {
		if got[r] != 1 {
			t.Fatalf("receiver %d got %d receipts of the short frame, want 1 (receipts %v)", i, got[r], got)
		}
	}
}
