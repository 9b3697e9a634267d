package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"aroma/internal/env"
	"aroma/internal/sim"
)

// refHearers is the brute-force reference for the medium's indexed
// receiver sets: every attached radio other than src, in ascending ID
// order, whose channel overlaps src's and which lies inside src's exact
// hearing range. It reads positions, channels and the range only — never
// linkGain — so running it perturbs no cache or counter.
func refHearers(m *Medium, src *Radio) []*Radio {
	range2 := squared(m.hearingRange(src))
	var out []*Radio
	for _, r := range m.ordered {
		if r == src || ChannelOverlap(src.Channel, r.Channel) == 0 {
			continue
		}
		if distSq(src.Pos, r.Pos) <= range2 {
			out = append(out, r)
		}
	}
	return out
}

// checkHearers compares, for every attached source, the indexed
// candidate set cut to the exact range that delivery, interference and
// energy accounting apply against refHearers. Every use site shares the
// rest of its code, so this equality is what keeps the index
// physics-identical to a scan of the whole medium.
func checkHearers(m *Medium) error {
	for _, src := range m.ordered {
		range2 := squared(m.hearingRange(src))
		var got []*Radio
		for _, r := range m.candidatesFor(src) {
			if distSq(src.Pos, r.Pos) <= range2 {
				got = append(got, r)
			}
		}
		want := refHearers(m, src)
		if len(got) != len(want) {
			return fmt.Errorf("radio %d: %d hearers, reference %d", src.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("radio %d: hearer %d is radio %d, reference radio %d",
					src.ID, i, got[i].ID, want[i].ID)
			}
		}
	}
	return nil
}

// refBusy is carrier sense decided in the dB domain, as the medium did
// before Busy compared milliwatts: sensed energy e, converted to dBm,
// above the threshold.
func refBusy(e, thresholdDBm float64) bool {
	return env.MilliwattsToDBm(e) > thresholdDBm
}

// checkBusy holds carrier sense to its references for every attached
// radio at the current instant. The energy energyAtMW returns (usually
// the radio's memo) must equal, bit for bit, a recompute that bypasses
// the memo, and the recompute must miss no link gain: a miss would mean
// the memo outlived a gain it summed. For an attached radio the memo
// must also record the recompute's lookup count and detection deadline,
// so a memo hit counts exactly the gain-cache hits a recompute would.
// The recompute's counts are put back, so checking does not inflate the
// counters. Busy must then match refBusy on the recomputed energy.
func checkBusy(m *Medium) error {
	now := m.kernel.Now()
	for _, r := range m.ordered {
		memo := m.energyAtMW(r)
		hits, misses := m.GainHits, m.GainMisses
		e, lookups, until := m.senseEnergyMW(r, now)
		missed := m.GainMisses - misses
		m.GainHits, m.GainMisses = hits, misses
		if math.Float64bits(e) != math.Float64bits(memo) {
			return fmt.Errorf("radio %d: carrier-sense memo %g mW, recompute %g mW", r.ID, memo, e)
		}
		if missed != 0 {
			return fmt.Errorf("radio %d: recomputing sensed energy missed %d link gains the memo used", r.ID, missed)
		}
		if r.csLookups != lookups || r.csUntil != until {
			return fmt.Errorf("radio %d: memo holds %d lookups until %d, recompute %d until %d",
				r.ID, r.csLookups, r.csUntil, lookups, until)
		}
		if got, want := m.Busy(r), refBusy(e, CSThresholdDBm); got != want {
			return fmt.Errorf("radio %d: Busy %v, dBm predicate %v (energy %g mW, threshold %d dBm)",
				r.ID, got, want, e, CSThresholdDBm)
		}
	}
	return nil
}

// memoKey is one directed pair whose link gain the memo holds fresh,
// with both ends' linkGen at the reading.
type memoKey struct {
	src, rx       int
	srcGen, rxGen uint64
}

// memoHeld reads, without a lookup and so without counting, every pair
// whose link gain the memo holds fresh, sorted by sender and receiver
// ID. A sender row's filled entries were recorded at the row's rowGen
// and an off-row entry at its gen; either is fresh while neither end's
// linkGen has passed that generation. The dense table the memo replaced
// held exactly the pairs looked up since either end last moved.
func memoHeld(m *Medium) []memoKey {
	var held []memoKey
	fresh := func(src, rx *Radio, gen uint64) {
		if src.linkGen <= gen && rx.linkGen <= gen {
			held = append(held, memoKey{src.ID, rx.ID, src.linkGen, rx.linkGen})
		}
	}
	for _, src := range m.ordered {
		for _, h := range src.row {
			if h.filled {
				fresh(src, h.rx, src.rowGen)
			}
		}
		if len(src.offRow) == 0 {
			continue
		}
		for _, rx := range m.ordered {
			if g, ok := src.offRow[int32(rx.ID)]; ok {
				fresh(src, rx, g.gen)
			}
		}
	}
	slices.SortFunc(held, func(a, b memoKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.rx, b.rx))
	})
	return held
}

// memoWatch holds the link-gain memo to the dense per-pair table it
// replaced, between two readings (observe):
//
//   - no pair the memo held fresh at the last reading is dropped unless
//     one end's linkGen moved;
//   - the GainMisses delta equals the number of pairs that became newly
//     held.
//
// A miss on a pair still held would hold nothing new, and a dropped
// pair would miss where the dense table hit, so together with the
// bit-exact gains and checkBusy's "missed nothing" the two keep hits and
// misses equal to the dense table's, lookup for lookup. The second
// holds only while no move or fault toggle follows a lookup between two
// readings: a gain recorded and then staled in between would count a
// miss and hold nothing. Kernel steps and the checks after them look up
// after they move, except a delivery round whose receipt callback runs
// an operation; such a callback reads the memo around the operation.
type memoWatch struct {
	m      *Medium
	held   []memoKey
	misses uint64
}

func watchMemo(m *Medium) *memoWatch {
	return &memoWatch{m: m, held: memoHeld(m), misses: m.GainMisses}
}

// observe reads the memo and checks it against the last reading.
func (w *memoWatch) observe() error {
	m := w.m
	now := memoHeld(m)
	prev := make(map[memoKey]bool, len(w.held))
	for _, k := range w.held {
		prev[k] = true
	}
	held := make(map[[2]int]memoKey, len(now))
	newly := uint64(0)
	for i, k := range now {
		if i > 0 && now[i-1].src == k.src && now[i-1].rx == k.rx {
			return fmt.Errorf("pair %d->%d held twice", k.src, k.rx)
		}
		held[[2]int{k.src, k.rx}] = k
		if !prev[k] {
			newly++
		}
	}
	for _, k := range w.held {
		src, rx := m.ordered[k.src-1], m.ordered[k.rx-1]
		if src.linkGen != k.srcGen || rx.linkGen != k.rxGen {
			continue // an end moved: the dense table dropped it too
		}
		if held[[2]int{k.src, k.rx}] != k {
			return fmt.Errorf("pair %d->%d dropped from the link-gain memo though neither end moved", k.src, k.rx)
		}
	}
	if missed := m.GainMisses - w.misses; missed != newly {
		return fmt.Errorf("%d link-gain misses, %d pairs newly held", missed, newly)
	}
	w.held, w.misses = now, m.GainMisses
	return nil
}

// runChecked fires k's events one at a time until the clock reaches
// horizon (0 runs until the queue is idle), asserting checkHearers and
// checkBusy before the first event and after every one, and after those
// the link-gain memo against w.
func runChecked(t testing.TB, k *sim.Kernel, m *Medium, w *memoWatch, horizon sim.Time) {
	t.Helper()
	check := func() error {
		if err := checkHearers(m); err != nil {
			return err
		}
		if err := checkBusy(m); err != nil {
			return err
		}
		return w.observe()
	}
	if err := check(); err != nil {
		t.Fatalf("at %d: %v", k.Now(), err)
	}
	for (horizon == 0 || k.Now() < horizon) && k.Step() {
		if err := check(); err != nil {
			t.Fatalf("at %d, step %d: %v", k.Now(), k.Steps(), err)
		}
	}
}
