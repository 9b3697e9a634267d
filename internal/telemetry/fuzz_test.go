package telemetry

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// fuzzTape doles out the fuzzer's bytes; once they run out it yields
// zeros.
type fuzzTape []byte

func (in *fuzzTape) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// Operation codes of the fuzz tape; each reads its own arguments.
const (
	opCounter    = iota // name, labels: a counter func the update op adds to
	opCounterFn         // name, labels: a counter func the update op adds to
	opGaugeFn           // name, labels
	opHost              // name, labels
	opSample            // one sampler tick
	opSampleMany        // (k+1)*64 sampler ticks
	opReserve           // Reserve(a*b)
	opUpdate            // instrument, value
	opScrape            // common-label set
	opSnapshot          // take and keep a snapshot
	numOps
)

const (
	// samplePeriod is the virtual time between the harness's sampler
	// ticks: 100 ms, the worlds' default, in nanoseconds.
	samplePeriod = 100_000_000
	// maxSamples bounds one input's sampler ticks (later ticks are
	// no-ops): enough for three decimations, few enough to keep every
	// input fast.
	maxSamples = 10_000
	// maxSnapshots and maxInstruments bound what every operation
	// rechecks.
	maxSnapshots   = 4
	maxInstruments = 32
)

// Names collide across kinds on purpose: instruments share Prometheus
// metric groups, and a name that is another's prefix sorts beside it.
var (
	counterNames = [...]string{"a.x_total", "radio.frames_total", "h.lat_bucket_total"}
	gaugeNames   = [...]string{"a.x", "a.x_total", "h.lat_bucket", "z.depth"}
	labelKeys    = [...]string{"kind", "world", "le", "a"}
	labelValues  = [...]string{"", "x", "1", `back\slash`, `q"uote`, "new\nline", "é", "2"}
	commonSets   = [][]Label{
		nil,
		{L("world", "w1")},
		{L("world", "w2")},
		{L("world", "w\\1\"\n")},
		{L("a", "1"), L("world", "w1")},
		{L("zz", "end"), L("le", "0")},
	}
	// fuzzValues covers integers, fractions, ±Inf, NaN, values past
	// 2^63 and past the uint64 range.
	fuzzValues = [...]float64{
		0, 1, -1, 0.5, -2.25, 1e-9, 1e21, math.Inf(1), math.Inf(-1), math.NaN(),
		1 << 63, -(1 << 63), 1 << 64, 1e300, 3, 1.0 / 3,
	}
	fuzzCounts = [...]uint64{0, 1, 7, 1 << 53, 1<<53 + 1, 1 << 63, 1<<64 - 1, 1000}
)

// refHarness drives a Registry and mirrors every sampled series with a
// refSeries, the reference implementation.
type refHarness struct {
	r        *Registry
	refs     []*refSeries // parallel to r.insts; nil for unsampled kinds
	counters []*uint64
	hosts    []*HostCounter
	cfns     []*uint64
	gfns     []*float64
	at       int64
	snaps    []keptSnapshot
	moved    bool // a sample or reservation since the last check
}

// keptSnapshot is a snapshot plus a deep copy of its series taken at
// the time, to prove later operations never rewrite it.
type keptSnapshot struct {
	snap   *Snapshot
	series [][]Point
}

func (h *refHarness) labels(in *fuzzTape) []Label {
	n := int(in.next() % 3)
	ls := make([]Label, n)
	for i := range ls {
		ls[i] = L(labelKeys[int(in.next())%len(labelKeys)], labelValues[int(in.next())%len(labelValues)])
	}
	return ls
}

// registering reports whether the registry still takes registrations:
// every instrument registers before the first sample.
func (h *refHarness) registering() bool { return h.r.phase == 0 }

// fresh reports whether name+labels is not registered yet, so the
// harness never trips the duplicate-registration panic.
func (h *refHarness) fresh(name string, labels []Label) bool {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return !h.r.names[identity(name, sorted)]
}

func (h *refHarness) register(in *fuzzTape, op byte) {
	pick := func(names []string) (string, []Label, bool) {
		name := names[int(in.next())%len(names)]
		ls := h.labels(in)
		return name, ls, h.registering() && len(h.r.insts) < maxInstruments && h.fresh(name, ls)
	}
	switch op {
	case opCounter:
		if name, ls, ok := pick(counterNames[:]); ok {
			v := new(uint64)
			h.counters = append(h.counters, v)
			h.r.CounterFunc(name, func() uint64 { return *v }, ls...)
		}
	case opCounterFn:
		if name, ls, ok := pick(counterNames[:]); ok {
			v := new(uint64)
			h.cfns = append(h.cfns, v)
			h.r.CounterFunc(name, func() uint64 { return *v }, ls...)
		}
	case opGaugeFn:
		if name, ls, ok := pick(gaugeNames[:]); ok {
			v := new(float64)
			h.gfns = append(h.gfns, v)
			h.r.GaugeFunc(name, func() float64 { return *v }, ls...)
		}
	case opHost:
		if name, ls, ok := pick(counterNames[:]); ok {
			h.hosts = append(h.hosts, h.r.HostCounter(name, ls...))
		}
	}
	for len(h.refs) < len(h.r.insts) {
		var rs *refSeries
		if h.r.insts[len(h.refs)].kind.sampled() {
			rs = &refSeries{}
		}
		h.refs = append(h.refs, rs)
	}
}

func (h *refHarness) sample() {
	if h.at >= maxSamples*samplePeriod {
		return
	}
	h.moved = true
	h.at += samplePeriod
	h.r.Sample(h.at)
	for i, in := range h.r.insts {
		if h.refs[i] != nil {
			h.refs[i].add(h.at, h.r.scalar(in))
		}
	}
}

func (h *refHarness) update(in *fuzzTape) {
	target := int(in.next())
	v := fuzzValues[int(in.next())%len(fuzzValues)]
	n := fuzzCounts[int(in.next())%len(fuzzCounts)]
	switch target % 4 {
	case 0:
		if len(h.counters) > 0 {
			*h.counters[target/4%len(h.counters)] += n
		}
	case 1:
		if len(h.cfns) > 0 {
			*h.cfns[target/4%len(h.cfns)] += n
		}
	case 2:
		if len(h.gfns) > 0 {
			*h.gfns[target/4%len(h.gfns)] = v
		}
	case 3:
		if len(h.hosts) > 0 {
			h.hosts[target/4%len(h.hosts)].Add(n)
		}
	}
}

func (h *refHarness) scrape(t *testing.T, common []Label) {
	t.Helper()
	var want bytes.Buffer
	got := h.r.AppendPrometheus(nil, common...)
	if err := refWritePrometheus(h.r, &want, common...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("exposition with common labels %q differs from the reference:\ngot:\n%s\nwant:\n%s", common, got, want.Bytes())
	}
}

func (h *refHarness) snapshot() {
	if len(h.snaps) == maxSnapshots {
		return
	}
	s := h.r.Snapshot(h.at)
	k := keptSnapshot{snap: s, series: make([][]Point, len(s.Instruments))}
	for i, is := range s.Instruments {
		k.series[i] = append([]Point(nil), is.Series...)
	}
	h.snaps = append(h.snaps, k)
}

// check compares every live series with its reference and every kept
// snapshot with the copy taken when it was made. Only samples and
// reservations touch series, so after any other operation it compares
// each series' length and last point, which keeps long inputs fast.
func (h *refHarness) check(t *testing.T, op int) {
	t.Helper()
	for i, in := range h.r.insts {
		if h.refs[i] == nil {
			if in.vals != nil {
				t.Fatalf("op %d: unsampled %s grew a series", op, in.name)
			}
			continue
		}
		if len(in.vals) != len(h.r.t) {
			t.Fatalf("op %d: %s has %d values for %d sample times", op, in.name, len(in.vals), len(h.r.t))
		}
		want, from := h.refs[i].pts, 0
		if !h.moved && len(in.vals) == len(want) && len(want) > 0 {
			from = len(want) - 1
		}
		if !samePoints(points(h.r, in, from), want[from:]) {
			t.Fatalf("op %d: %s series (%d points) differs from the reference (%d points)",
				op, in.name, len(in.vals), len(want))
		}
	}
	if !h.moved {
		return
	}
	h.moved = false
	for si, k := range h.snaps {
		for i, is := range k.snap.Instruments {
			if !samePoints(is.Series, k.series[i]) {
				t.Fatalf("op %d: snapshot %d: %s series rewritten after it was taken", op, si, is.Name)
			}
		}
	}
}

// samePoints compares point lists bit for bit, so NaN values match.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// FuzzTelemetryMatchesReference plays random operation sequences —
// registrations of every kind (skipped once sampling started, since the
// registry then panics), sampler ticks, reservations, value updates,
// scrapes under changing common labels, snapshots — on a Registry, and
// after every operation requires
// every series to equal the reference series' points, every kept
// snapshot to be unchanged, and every scrape to equal the reference
// exposition byte for byte.
func FuzzTelemetryMatchesReference(f *testing.F) {
	// A long run that decimates three times (2049, 4097 and 8193
	// samples) with a snapshot shared across the first two.
	f.Add([]byte{
		opCounter, 0, 1, 0, 3,
		opGaugeFn, 1, 1, 1, 4,
		opCounterFn, 1, 0,
		opReserve, 40, 40,
		opUpdate, 0, 0, 3, opUpdate, 2, 9, 0, opUpdate, 1, 0, 6,
		opSampleMany, 40,
		opSnapshot,
		opSampleMany, 30,
		opUpdate, 6, 6, 0,
		opScrape, 1,
		opSampleMany, 70,
		opScrape, 3,
	})
	// Registrations after a sample are skipped, so the gauge and
	// host counter here never register; the scrapes stay on one.
	f.Add([]byte{
		opCounter, 1, 0,
		opSample,
		opScrape, 1,
		opGaugeFn, 3, 2, 2, 5, 0, 0,
		opUpdate, 2, 3, 0,
		opSample,
		opScrape, 1,
		opHost, 0, 1, 3, 6,
		opScrape, 4,
		opScrape, 0,
	})
	// A registration after a scrape, before any sample: the cached
	// skeleton must pick up the new instrument, then follow
	// common-label changes.
	f.Add([]byte{
		opCounter, 1, 0,
		opScrape, 1,
		opGaugeFn, 3, 2, 2, 5, 0, 0,
		opReserve, 3, 3,
		opUpdate, 2, 3, 0,
		opScrape, 1,
		opHost, 0, 1, 3, 6,
		opSample,
		opScrape, 4,
		opScrape, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := &refHarness{r: New()}
		in := fuzzTape(ops)
		for i := 0; len(in) > 0; i++ {
			switch op := in.next() % numOps; op {
			case opSample:
				h.sample()
			case opSampleMany:
				for n := (int(in.next()) + 1) * 64; n > 0; n-- {
					h.sample()
				}
			case opReserve:
				h.r.Reserve(int(in.next()) * int(in.next()))
				h.moved = true
			case opUpdate:
				h.update(&in)
			case opScrape:
				h.scrape(t, commonSets[int(in.next())%len(commonSets)])
			case opSnapshot:
				h.snapshot()
			default:
				h.register(&in, op)
			}
			h.check(t, i)
		}
		for _, common := range commonSets {
			h.scrape(t, common)
		}
	})
}
