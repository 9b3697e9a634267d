package telemetry

import (
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("kernel.steps_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	snap := r.Snapshot(0)
	if v, ok := snap.Value("kernel.steps_total"); !ok || v != 5 {
		t.Fatalf("snapshot counter = %g ok=%v", v, ok)
	}
}

func TestZeroValueHandlesAreInert(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatalf("zero handle mutated state: %d", c.Value())
	}
	var hc *HostCounter
	hc.Inc()
	if hc.Load() != 0 {
		t.Fatalf("nil host instruments mutated state")
	}
}

func TestCounterNamingEnforced(t *testing.T) {
	r := New()
	for _, f := range []func(){
		func() { r.Counter("kernel.steps") },                               // counter without _total
		func() { r.CounterFunc("radio.sent", func() uint64 { return 0 }) }, // ditto
		func() { r.HostCounter("host.drops") },                             // ditto
		func() { r.Counter("") },                                           // empty name
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("registration accepted an invalid name")
				}
			}()
			f()
		}()
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.Counter("a.b_total", L("x", "1"))
	r.Counter("a.b_total", L("x", "2")) // different labels: fine
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate identity accepted")
		}
	}()
	r.Counter("a.b_total", L("x", "1"))
}

func TestFuncInstrumentsReadLazily(t *testing.T) {
	r := New()
	var sent uint64
	r.CounterFunc("radio.frames_sent_total", func() uint64 { return sent })
	r.GaugeFunc("radio.active", func() float64 { return float64(sent) / 2 })
	sent = 10
	snap := r.Snapshot(0)
	if v, _ := snap.Value("radio.frames_sent_total"); v != 10 {
		t.Fatalf("counter func = %g, want 10", v)
	}
	if v, _ := snap.Value("radio.active"); v != 5 {
		t.Fatalf("gauge func = %g, want 5", v)
	}
}

func TestSampleBuildsSeries(t *testing.T) {
	r := New()
	c := r.Counter("k.n_total")
	r.HostCounter("host.x_total") // host plane: never sampled
	for i := 1; i <= 3; i++ {
		c.Inc()
		r.Sample(int64(i) * 100)
	}
	snap := r.Snapshot(300)
	var got []Point
	for _, in := range snap.Instruments {
		if in.Name == "k.n_total" {
			got = in.Series
		}
		if in.Name == "host.x_total" && in.Series != nil {
			t.Fatalf("host instrument grew a sim-time series")
		}
	}
	want := []Point{{100, 1}, {200, 2}, {300, 3}}
	if len(got) != len(want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSeriesDecimationIsDeterministicAndBounded(t *testing.T) {
	run := func() []Point {
		r := New()
		c := r.Counter("k.n_total")
		for i := 1; i <= 3*maxPoints; i++ {
			c.Inc()
			r.Sample(int64(i))
		}
		snap := r.Snapshot(0)
		for _, in := range snap.Instruments {
			if in.Name == "k.n_total" {
				return in.Series
			}
		}
		return nil
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) > maxPoints {
		t.Fatalf("series length %d out of bounds (max %d)", len(a), maxPoints)
	}
	if len(a) != len(b) {
		t.Fatalf("decimation nondeterministic: %d vs %d points", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decimation nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// After decimation the retained points must still be in ascending
	// time order and span the run.
	for i := 1; i < len(a); i++ {
		if a[i].T <= a[i-1].T {
			t.Fatalf("series time not ascending at %d: %v then %v", i, a[i-1], a[i])
		}
	}
	if last := a[len(a)-1]; last.T != int64(3*maxPoints) {
		t.Fatalf("last retained sample T = %d, want %d", last.T, 3*maxPoints)
	}
}

func TestSnapshotJSONAndOrdering(t *testing.T) {
	r := New()
	depth := func() float64 { return 0 }
	r.GaugeFunc("b.depth", depth, L("queue", "1"))
	r.GaugeFunc("b.depth", depth, L("queue", "0"))
	r.Counter("a.n_total")
	snap := r.Snapshot(42)
	if snap.At != 42 {
		t.Fatalf("At = %d", snap.At)
	}
	names := make([]string, 0, 3)
	for _, in := range snap.Instruments {
		names = append(names, in.Name+"/"+in.Labels["queue"])
	}
	want := []string{"a.n_total/", "b.depth/0", "b.depth/1"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	c := r.Counter("kernel.steps_total")
	c.Add(7)
	r.GaugeFunc("radio.active", func() float64 { return 2.5 })
	r.Counter("fault.injected_total", L("kind", "jam"))
	hc := r.HostCounter("host.sse_dropped_total")
	hc.Add(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b, L("world", "w1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aroma_kernel_steps_total counter",
		`aroma_kernel_steps_total{world="w1"} 7`,
		`aroma_radio_active{world="w1"} 2.5`,
		`aroma_fault_injected_total{kind="jam",world="w1"} 0`,
		`aroma_host_sse_dropped_total{world="w1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Two identical exports must render byte-identically.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2, L("world", "w1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if out != b2.String() {
		t.Fatalf("prometheus output not stable across renders")
	}
}

// TestSnapshotIsImmutable pins that a snapshot's series never change
// after it is taken, even when the live columns decimate in place: a
// snapshot copies its points out. Reserved and unreserved registries
// must both hold.
func TestSnapshotIsImmutable(t *testing.T) {
	for _, reserve := range []int{0, maxPoints} {
		r := New()
		r.Reserve(reserve)
		c := r.Counter("k.n_total")
		step := func(i int) {
			c.Inc()
			r.Sample(int64(i))
		}
		for i := 1; i <= maxPoints; i++ {
			step(i)
		}
		snap := r.Snapshot(maxPoints)
		got := snap.Instruments[0].Series
		if len(got) != maxPoints || got[0] != (Point{1, 1}) {
			t.Fatalf("reserve %d: snapshot series len %d, first %v", reserve, len(got), got[0])
		}
		step(maxPoints + 1) // decimates the live series
		step(maxPoints + 2)
		if got[0] != (Point{1, 1}) || got[maxPoints-1] != (Point{maxPoints, maxPoints}) {
			t.Fatalf("reserve %d: snapshot rewritten by later samples: first %v, last %v",
				reserve, got[0], got[maxPoints-1])
		}
		live := r.Snapshot(maxPoints + 2).Instruments[0].Series
		if live[0] != (Point{2, 2}) || live[len(live)-1] != (Point{maxPoints + 2, maxPoints + 2}) {
			t.Fatalf("reserve %d: live series after decimation: first %v, last %v",
				reserve, live[0], live[len(live)-1])
		}
	}
}

// TestReserveSizesSeriesOnce pins the reservation contract: every
// sampled instrument's value column and its cohort's time column,
// including ones registered after Reserve, get one array of
// min(n, maxPoints) points that sampling never replaces — decimation
// compacts within it.
func TestReserveSizesSeriesOnce(t *testing.T) {
	r := New()
	r.Counter("k.a_total")
	r.HostCounter("host.x_total")
	r.Reserve(10)
	r.GaugeFunc("k.late", func() float64 { return 0 })
	if len(r.cohorts) != 1 {
		t.Fatalf("%d cohorts before the first sample, want 1", len(r.cohorts))
	}
	for _, in := range r.insts {
		want := 10
		if !in.kind.sampled() {
			want = 0
		}
		if got := cap(in.vals); got != want {
			t.Fatalf("%s: cap %d, want %d", in.name, got, want)
		}
	}
	if got := cap(r.cohorts[0].t); got != 10 {
		t.Fatalf("time column: cap %d, want 10", got)
	}
	r.Reserve(3 * maxPoints)
	arrays := make([]*float64, len(r.insts))
	for i, in := range r.insts {
		if in.kind.sampled() {
			if cap(in.vals) != maxPoints {
				t.Fatalf("%s: cap %d after a large reservation, want %d", in.name, cap(in.vals), maxPoints)
			}
			arrays[i] = &in.vals[:1][0]
		}
	}
	times := &r.cohorts[0].t[:1][0]
	for i := 1; i <= 3*maxPoints; i++ {
		r.Sample(int64(i))
	}
	for i, in := range r.insts {
		if in.kind.sampled() && &in.vals[:1][0] != arrays[i] {
			t.Fatalf("%s: value column replaced while sampling a reserved run", in.name)
		}
	}
	if &r.cohorts[0].t[:1][0] != times {
		t.Fatalf("time column replaced while sampling a reserved run")
	}
}

// TestReserveBytesPerPoint pins the columnar layout's footprint on
// BenchmarkTelemetryReserve's reservation: one array per sampled
// instrument plus one per cohort, at 8 bytes per reserved point plus
// the allocator's size-class rounding (under 1/8 at these sizes) — a
// (time, value) point per instrument costs 16. It reads the allocator's
// counters around one Reserve, as testing.AllocsPerRun does, where
// testing.Benchmark would take seconds.
func TestReserveBytesPerPoint(t *testing.T) {
	r := worldRegistry()
	arrays := uint64(len(r.insts) + len(r.cohorts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Reserve(reservePoints)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != arrays {
		t.Errorf("Reserve allocates %d arrays, want %d (%d value columns plus %d time columns)",
			got, arrays, len(r.insts), len(r.cohorts))
	}
	if got, want := after.TotalAlloc-before.TotalAlloc, 9*reservePoints*arrays; got > want {
		t.Errorf("Reserve(%d) into %d arrays allocates %d B (%.2f B per point), want at most %d",
			reservePoints, arrays, got, float64(got)/float64(reservePoints*arrays), want)
	}
}

// TestLateCohortMatchesReference registers instruments after 3,000
// samples — a second cohort, whose phase starts at its registration —
// and requires every series, old and late, to equal the reference
// series point for point across the decimations that follow.
func TestLateCohortMatchesReference(t *testing.T) {
	h := &refHarness{r: New()}
	h.r.Reserve(1000)
	var early, late uint64
	h.r.CounterFunc("early.n_total", func() uint64 { return early })
	h.refs = append(h.refs, &refSeries{})
	tick := func() {
		early++
		late += 3
		h.sample()
	}
	for i := 0; i < 3000; i++ {
		tick()
	}
	h.r.CounterFunc("late.n_total", func() uint64 { return late })
	h.r.GaugeFunc("late.g", func() float64 { return float64(late) / 2 })
	h.refs = append(h.refs, &refSeries{}, &refSeries{})
	if len(h.r.cohorts) != 2 {
		t.Fatalf("%d cohorts, want 2", len(h.r.cohorts))
	}
	for i := 0; i < 5000; i++ {
		tick()
	}
	for i, in := range h.r.insts {
		if got, want := points(in, 0), h.refs[i].pts; !samePoints(got, want) {
			t.Fatalf("%s: %d points differ from the reference's %d", in.name, len(got), len(want))
		}
	}
	if a, b := len(h.r.insts[0].vals), len(h.r.insts[1].vals); a == b {
		t.Fatalf("early and late series both hold %d points: the late cohort decimated with the early one", a)
	}
}

// TestWritePrometheusConcurrentScrapes scrapes one host-plane registry
// from several goroutines while its counters move, as the daemon's
// /metrics handlers do; under -race it proves the skeleton and buffer
// are guarded.
func TestWritePrometheusConcurrentScrapes(t *testing.T) {
	r := New()
	hc := r.HostCounter("host.requests_total", L("route", "run"))
	r.HostCounter("host.failures_total")
	want := strings.Count(scrapeString(t, r), "\n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hc.Inc()
				if got := strings.Count(scrapeString(t, r), "\n"); got != want {
					t.Errorf("scrape has %d lines, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := scrapeString(t, r); !strings.Contains(got, `aroma_host_requests_total{route="run"} 800`) {
		t.Fatalf("final scrape:\n%s", got)
	}
}

func scrapeString(t *testing.T, r *Registry) string {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Error(err)
	}
	return b.String()
}

// TestHotPathZeroAllocs is the hard zero-allocation gate on the
// sim-plane update path — exact, unlike the benchgate allocs jitter
// floor. Handle updates (live and zero-value) must be allocation-free
// or instrumented model code would churn the GC on every event.
func TestHotPathZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot.events_total")
	var zc Counter
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		zc.Inc()
	}); n != 0 {
		t.Fatalf("hot-path allocs/op = %v, want 0", n)
	}

	// A sampler tick over a reserved registry, across decimations.
	sr := sampleRegistry()
	sr.Reserve(maxPoints)
	at := int64(0)
	if n := testing.AllocsPerRun(3*maxPoints, func() {
		at++
		sr.Sample(at)
	}); n != 0 {
		t.Fatalf("reserved Sample allocs/op = %v, want 0", n)
	}

	// A steady-state scrape: values move, the skeleton is reused.
	pr, pc := promRegistry()
	if err := pr.WritePrometheus(io.Discard, L("world", "w1")); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		pc.Inc()
		pr.WritePrometheus(io.Discard, L("world", "w1"))
	}); n != 0 {
		t.Fatalf("steady-state WritePrometheus allocs/op = %v, want 0", n)
	}
}
