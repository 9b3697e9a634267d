package radio

import (
	"fmt"
	"math"
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
		if got, want := m.Busy(r), refBusy(e, r.CSThresholdDBm); got != want {
			return fmt.Errorf("radio %d: Busy %v, dBm predicate %v (energy %g mW, threshold %g dBm)",
				r.ID, got, want, e, r.CSThresholdDBm)
		}
	}
	return nil
}

// runChecked fires k's events one at a time up to horizon (0 runs until
// the queue is idle), asserting checkHearers and checkBusy before the
// first event and after every one.
func runChecked(t testing.TB, k *sim.Kernel, m *Medium, horizon sim.Time) {
	t.Helper()
	check := func() error {
		if err := checkHearers(m); err != nil {
			return err
		}
		return checkBusy(m)
	}
	if err := check(); err != nil {
		t.Fatalf("at %d: %v", k.Now(), err)
	}
	k.SetHorizon(horizon)
	for k.Step() {
		if err := check(); err != nil {
			t.Fatalf("at %d, step %d: %v", k.Now(), k.Steps(), err)
		}
	}
}
