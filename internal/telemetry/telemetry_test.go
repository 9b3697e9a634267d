package telemetry

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := counter(r, "kernel.steps_total")
	hc := r.HostCounter("host.drops_total")
	*c = 5
	hc.Add(2)
	snap := r.Snapshot(0)
	if v, ok := snap.Value("kernel.steps_total"); !ok || v != 5 {
		t.Fatalf("snapshot counter = %g ok=%v", v, ok)
	}
	if v, ok := snap.Value("host.drops_total"); !ok || v != 2 {
		t.Fatalf("snapshot host counter = %g ok=%v", v, ok)
	}
	for _, in := range snap.Instruments {
		if want := map[string]string{"kernel.steps_total": "counter", "host.drops_total": "host_counter"}[in.Name]; in.Kind != want {
			t.Fatalf("%s: kind %q, want %q", in.Name, in.Kind, want)
		}
	}
}

func TestZeroValueHandlesAreInert(t *testing.T) {
	var hc *HostCounter
	hc.Inc()
	if hc.Load() != 0 {
		t.Fatalf("nil host instruments mutated state")
	}
}

func TestCounterNamingEnforced(t *testing.T) {
	r := New()
	for _, f := range []func(){
		func() { r.CounterFunc("radio.sent", func() uint64 { return 0 }) }, // counter without _total
		func() { r.HostCounter("host.drops") },                             // ditto
		func() { counter(r, "") },                                          // empty name
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
	counter(r, "a.b_total", L("x", "1"))
	counter(r, "a.b_total", L("x", "2")) // different labels: fine
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate identity accepted")
		}
	}()
	counter(r, "a.b_total", L("x", "1"))
}

// TestRegisterPanicsNameTheInstrument pins the panic text: an
// instrument is named as the exposition writes it, name{k="v"}.
func TestRegisterPanicsNameTheInstrument(t *testing.T) {
	wantPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if got := recover(); got != want {
				t.Errorf("panic %q, want %q", got, want)
			}
		}()
		f()
	}
	r := New()
	counter(r, "fault.injected_total", L("kind", "crash"))
	wantPanic(`telemetry: duplicate instrument fault.injected_total{kind="crash"}`,
		func() { counter(r, "fault.injected_total", L("kind", "crash")) })
	r.Sample(1)
	wantPanic(`telemetry: instrument fault.injected_total{kind="jam"} registered after the first sample`,
		func() { counter(r, "fault.injected_total", L("kind", "jam")) })
}

// TestRegisterAfterSamplePanics pins the one-column contract: every
// sampled instrument shares the registry's sample times, so a
// registration of any kind after the first Sample panics, while one
// after Reserve, before sampling, is fine.
func TestRegisterAfterSamplePanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
	}{
		{"counter func", func(r *Registry) { counter(r, "late.n_total") }},
		{"gauge func", func(r *Registry) { r.GaugeFunc("late.g", func() float64 { return 0 }) }},
		{"host counter", func(r *Registry) { r.HostCounter("late.host_total") }},
	} {
		name, register := tc.name, tc.register
		r := New()
		counter(r, "early.n_total")
		r.Reserve(4)
		register(r)
		r = New()
		counter(r, "early.n_total")
		r.Sample(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registered after the first sample", name)
				}
			}()
			register(r)
		}()
	}
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
	c := counter(r, "k.n_total")
	r.HostCounter("host.x_total") // host plane: never sampled
	for i := 1; i <= 3; i++ {
		*c++
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
		c := counter(r, "k.n_total")
		for i := 1; i <= 3*maxPoints; i++ {
			*c++
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
	counter(r, "a.n_total")
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

func TestAppendPrometheus(t *testing.T) {
	r := New()
	*counter(r, "kernel.steps_total") = 7
	r.GaugeFunc("radio.active", func() float64 { return 2.5 })
	counter(r, "fault.injected_total", L("kind", "jam"))
	hc := r.HostCounter("host.sse_dropped_total")
	hc.Add(3)

	prefix := "# scraped\n"
	out := string(r.AppendPrometheus([]byte(prefix), L("world", "w1")))
	if !strings.HasPrefix(out, prefix) {
		t.Fatalf("AppendPrometheus dropped the slice it appends to:\n%s", out)
	}
	out = out[len(prefix):]
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
	if out != string(r.AppendPrometheus(nil, L("world", "w1"))) {
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
		c := counter(r, "k.n_total")
		step := func(i int) {
			*c++
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
// sampled instrument's value column and the registry's time column,
// including ones registered after Reserve, get one array of
// min(n, maxPoints) points that sampling never replaces — decimation
// compacts within it.
func TestReserveSizesSeriesOnce(t *testing.T) {
	r := New()
	counter(r, "k.a_total")
	r.HostCounter("host.x_total")
	r.Reserve(10)
	r.GaugeFunc("k.late", func() float64 { return 0 })
	for _, in := range r.insts {
		want := 10
		if !in.kind.sampled() {
			want = 0
		}
		if got := cap(in.vals); got != want {
			t.Fatalf("%s: cap %d, want %d", in.name, got, want)
		}
	}
	if got := cap(r.t); got != 10 {
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
	times := &r.t[:1][0]
	for i := 1; i <= 3*maxPoints; i++ {
		r.Sample(int64(i))
	}
	for i, in := range r.insts {
		if in.kind.sampled() && &in.vals[:1][0] != arrays[i] {
			t.Fatalf("%s: value column replaced while sampling a reserved run", in.name)
		}
	}
	if &r.t[:1][0] != times {
		t.Fatalf("time column replaced while sampling a reserved run")
	}
}

// TestReserveBytesPerPoint pins the columnar layout's footprint on
// BenchmarkTelemetryReserve's reservation: one array per sampled
// instrument plus the time column, at 8 bytes per reserved point plus
// the allocator's size-class rounding (under 1/8 at these sizes) — a
// (time, value) point per instrument costs 16. It reads the allocator's
// counters around one Reserve, as testing.AllocsPerRun does, where
// testing.Benchmark would take seconds.
func TestReserveBytesPerPoint(t *testing.T) {
	r := worldRegistry()
	arrays := uint64(len(r.insts) + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Reserve(reservePoints)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != arrays {
		t.Errorf("Reserve allocates %d arrays, want %d (%d value columns plus the time column)",
			got, arrays, len(r.insts))
	}
	if got, want := after.TotalAlloc-before.TotalAlloc, 9*reservePoints*arrays; got > want {
		t.Errorf("Reserve(%d) into %d arrays allocates %d B (%.2f B per point), want at most %d",
			reservePoints, arrays, got, float64(got)/float64(reservePoints*arrays), want)
	}
}

// TestAppendPrometheusConcurrentScrapes scrapes one host-plane registry
// from several goroutines while its counters move, as the daemon's
// /metrics handlers do; under -race it proves the skeleton is guarded.
func TestAppendPrometheusConcurrentScrapes(t *testing.T) {
	r := New()
	hc := r.HostCounter("host.requests_total", L("route", "run"))
	r.HostCounter("host.failures_total")
	want := strings.Count(scrapeString(r), "\n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hc.Inc()
				if got := strings.Count(scrapeString(r), "\n"); got != want {
					t.Errorf("scrape has %d lines, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := scrapeString(r); !strings.Contains(got, `aroma_host_requests_total{route="run"} 800`) {
		t.Fatalf("final scrape:\n%s", got)
	}
}

func scrapeString(r *Registry) string { return string(r.AppendPrometheus(nil)) }

// TestHotPathZeroAllocs is the hard zero-allocation gate on the
// telemetry work a running world repeats — exact, unlike the benchgate
// allocs jitter floor: a sampler tick over a reserved registry, and a
// steady-state scrape into a reused slice.
func TestHotPathZeroAllocs(t *testing.T) {
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

	// A steady-state scrape: values move, the skeleton and the slice
	// are reused.
	pr, pc := promRegistry()
	buf := pr.AppendPrometheus(nil, L("world", "w1"))
	if n := testing.AllocsPerRun(100, func() {
		*pc++
		buf = pr.AppendPrometheus(buf[:0], L("world", "w1"))
	}); n != 0 {
		t.Fatalf("steady-state AppendPrometheus allocs/op = %v, want 0", n)
	}
}
