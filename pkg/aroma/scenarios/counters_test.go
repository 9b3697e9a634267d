package scenarios

import (
	"maps"
	"slices"
	"testing"

	"aroma/pkg/aroma/scenario"
)

// runCounters are the event and link-layer counters of one scenario run
// to its horizon. None of them is part of a digest, so they pin what
// the digests cannot see: how many events the kernel counted and
// sequenced, how often the medium's gain memo answered, and what the
// MAC did.
type runCounters struct {
	Steps, Seq           uint64
	GainHits, GainMisses uint64
	Backoffs, SentData   uint64
	Drops                uint64
}

// pinnedCounters are the runCounters of the MAC-heavy scenarios and of
// smartprojector, the paper's central RFB scenario, at seeds 1 and 7. A
// change that fires some events in a cheaper way (for example counting
// idle backoff slots down without queueing them) must keep every one of
// these numbers: each skipped event still counts one step and one
// sequence number, and each skipped carrier-sense check still counts
// its gain-memo hits. A change to what the display side does with the
// pixels it receives must keep them too. Regenerate the table only for a
// deliberate model change, from the values the test prints.
var pinnedCounters = map[string]map[int64]runCounters{
	"walkabout": {
		1: {2330163, 2345486, 180906, 585, 20880, 20703, 963},
		7: {2358084, 2373448, 198986, 587, 21237, 20982, 984},
	},
	"lab": {
		1: {335057, 353769, 116535, 12, 14615, 13797, 0},
		7: {341303, 360012, 120710, 12, 14899, 13981, 0},
	},
	"densitysweep": {
		1: {2277152, 2279204, 7187860, 30320, 22212, 10109, 617},
		7: {2220007, 2222155, 6865807, 29350, 22145, 10234, 643},
	},
	"faultstorm": {
		1: {119541, 120223, 63747, 1050, 1464, 747, 27},
		7: {107660, 108341, 59037, 1050, 1526, 702, 26},
	},
	"mobiledense": {
		1: {432999, 433686, 83805, 15138, 2831, 2765, 189},
		7: {342365, 343088, 65216, 14793, 2549, 2431, 146},
	},
	"smartprojector": {
		1: {72338, 76307, 26189, 12, 3081, 2896, 0},
		7: {71403, 75372, 26123, 12, 3112, 2908, 0},
	},
}

func TestPinnedRunCounters(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(pinnedCounters)) {
		seeds := pinnedCounters[name]
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				b, err := scenario.Build(name, scenario.Config{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				w := b.World
				w.RunUntil(b.Horizon)
				k, m, mc := w.Kernel(), w.Medium(), w.MAC()
				got := runCounters{k.Steps(), k.Seq(), m.GainHits, m.GainMisses, mc.Backoffs, mc.SentData, mc.Drops}
				if want := seeds[seed]; got != want {
					t.Errorf("seed %d: counters %+v, pinned %+v", seed, got, want)
				}
			}
		})
	}
}
