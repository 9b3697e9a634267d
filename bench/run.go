package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pins holds each workload's digest-of-digests at the default seed and
// full sizes. They are amd64 values: other architectures may fuse
// floating-point multiply-adds and legitimately end at other digests.
//
//go:embed pins.json
var pinsJSON []byte

const defaultSeed = 1

// phase is a sequence of rounds of one kind, untraced or traced.
type phase []roundStats

func cpuSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

// runRound runs one round and reads the runtime counters around it,
// outside its timed part.
func runRound(fx fixture, tr *tracer) roundStats {
	var m0, m1 runtime.MemStats
	c0 := cpuSamples()
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	t0 := time.Now()
	st := fx.round(tr)
	st.wall = time.Since(t0)
	st.peakRSS = peakRSSMiB()
	runtime.ReadMemStats(&m1)
	c1 := cpuSamples()
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.gcCPU = c1[0].Value.Float64() - c0[0].Value.Float64()
	st.cpu = c1[1].Value.Float64() - c0[1].Value.Float64()
	return st
}

func (r roundStats) eventRate() float64 { return float64(r.events) / r.wall.Seconds() }

// more reports whether another round, of about the last round's length,
// brings the rounds' total wall time (rounds of all kinds) nearer to
// until seconds than stopping does.
func more(until float64, rounds ...phase) bool {
	total, last := 0.0, 0.0
	for _, p := range rounds {
		total += p.wall()
		if len(p) > 0 {
			last = p[len(p)-1].wall.Seconds()
		}
	}
	return total+last/2 < until
}

// timed runs whole untraced rounds, at least one, until the phase's
// rounds have taken until seconds in all.
func (p *phase) timed(fx fixture, until float64) {
	off := &tracer{}
	for n := 0; n == 0 || more(until, *p); n++ {
		*p = append(*p, runRound(fx, off))
	}
}

// layerTrace is the traced part of a --trace 1 run.
type layerTrace struct {
	tr         *tracer
	traced     phase
	cpu, alloc map[string]float64 // module totals over the traced rounds
	dir        string
}

// alternate alternates untraced rounds, added to plain, and traced ones,
// at least one of each, until both kinds have taken until seconds in
// all, so the tracing overhead is measured under the same machine
// conditions as the rounds it is compared with. Traced rounds run with
// spans and between a CPU and an allocation profile; traced round n
// writes cpu-n.pprof, and alloc-n.pprof with alloc-base-n.pprof, the
// allocation profile taken just before it, to the trace directory.
// `go tool pprof -top` then reads their flat shares.
func (lt *layerTrace) alternate(fx fixture, until float64, plain *phase) error {
	off := &tracer{}
	for i := 0; i < 2 || more(until, *plain, lt.traced); i++ {
		if i%2 == 0 {
			*plain = append(*plain, runRound(fx, off))
			continue
		}
		n := len(lt.traced)
		file := func(kind string) string { return filepath.Join(lt.dir, fmt.Sprintf("%s-%d.pprof", kind, n)) }
		if err := writeAllocProfile(file("alloc-base")); err != nil {
			return err
		}
		cpu, err := os.Create(file("cpu"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return err
		}
		st := runRound(fx, lt.tr)
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		if err := writeAllocProfile(file("alloc")); err != nil {
			return err
		}
		lt.tr.setCounting(false)
		lt.traced = append(lt.traced, st)
		if err := pprofTotals(lt.cpu, "cpu", "ns", file("cpu"), ""); err != nil {
			return err
		}
		if err := pprofTotals(lt.alloc, "alloc_space", "B", file("alloc"), file("alloc-base")); err != nil {
			return err
		}
	}
	return nil
}

func (p phase) sum(f func(roundStats) float64) (s float64) {
	for _, r := range p {
		s += f(r)
	}
	return s
}

func (p phase) events() float64 {
	return p.sum(func(r roundStats) float64 { return float64(r.events) })
}
func (p phase) wall() float64 { return p.sum(func(r roundStats) float64 { return r.wall.Seconds() }) }

// eventRate is the phase's kernel steps per second of round wall time:
// a mean over the whole phase, so that it weighs the host's fast and
// slow spells by how long each lasted.
func (p phase) eventRate() float64 { return p.events() / p.wall() }

func (p phase) eventRates() []float64 {
	var xs []float64
	for _, r := range p {
		xs = append(xs, r.eventRate())
	}
	return xs
}

func (p phase) peakRSS() []float64 {
	var xs []float64
	for _, r := range p {
		xs = append(xs, r.peakRSS)
	}
	return xs
}

func (p phase) ops() (n int, total time.Duration) {
	for _, r := range p {
		n += len(r.ops)
		for _, d := range r.ops {
			total += d
		}
	}
	return n, total
}

// outcome is a finished run: its result plus what the human report adds.
type outcome struct {
	result
	rounds     int
	roundRates []float64 // events/s of each untraced round
	dod        string    // digest-of-digests of the first round
	notes      []string  // unresolved percentiles, pin state
	layers     []spanStat
}

// execute sets the workload up setupRepeats times, spread over the run:
// after each set-up it runs its share of the timed rounds on the fresh
// fixture. It then checks every digest and computes the end-to-end
// metrics, or, when traceDir is set, the per-layer ones; traceDir then
// receives the trace files.
func execute(wl workload, rc runCfg, seconds float64, traceDir string) (*outcome, error) {
	trace := traceDir != ""
	var lt *layerTrace
	if trace {
		if err := os.RemoveAll(traceDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		lt = &layerTrace{tr: newTracer(), cpu: map[string]float64{}, alloc: map[string]float64{}, dir: traceDir}
	}
	var setups []float64
	var plain phase
	var fx fixture
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		f, err := wl.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fx = f
		until := seconds * float64(i+1) / setupRepeats
		if !trace {
			plain.timed(fx, until)
		} else if err := lt.alternate(fx, until, &plain); err != nil {
			fx.close()
			return nil, err
		}
	}
	defer fx.close()

	rounds := plain
	tr := &tracer{}
	if trace {
		rounds = append(append(phase(nil), plain...), lt.traced...)
		tr = lt.tr
		// The second path counts its worlds: for workloads whose worlds
		// the benchmark cannot reach (the daemon) the counts
		// come from this in-process replay of one round.
		tr.setCounting(true)
	}

	o := &outcome{rounds: len(plain), roundRates: plain.eventRates()}
	want := plain[0].digests
	o.dod = digestOfDigests(want)
	for _, r := range rounds {
		o.Attempted += r.attempted
		o.Failed += r.failed + diverged(r.digests, want)
	}
	o.Failed += fx.check(tr, want)
	if rc.seed == defaultSeed && rc.sz.pinned && runtime.GOARCH == "amd64" {
		var pins map[string]string
		if err := json.Unmarshal(pinsJSON, &pins); err != nil {
			return nil, fmt.Errorf("pins.json: %w", err)
		}
		if pins[wl.name] != o.dod {
			o.Failed++
			o.notes = append(o.notes, fmt.Sprintf("digest-of-digests %s differs from the pinned %q", o.dod, pins[wl.name]))
		}
	}
	o.Correct = o.Failed == 0

	if !trace {
		ops, total := plain.ops()
		ops = max(ops, 1)
		allocMiB := plain.sum(func(r roundStats) float64 { return float64(r.allocBytes) }) / (1 << 20)
		o.Metrics = map[string]metric{
			"setup_s":         {median(setups), "s"},
			"events_per_s":    {plain.eventRate(), "events/s"},
			"op_mean_ms":      {float64(total.Nanoseconds()) / 1e6 / float64(ops), "ms"},
			"alloc_mb_per_op": {allocMiB / float64(ops), "MiB/op"},
			"peak_rss_mb":     {median(plain.peakRSS()), "MiB"},
		}
		return o, nil
	}

	o.layers = tr.table()
	o.Metrics, o.notes = layerMetrics(tr, o.layers, plain, lt, o.notes)
	o.notes = append(o.notes, fmt.Sprintf("alternating rounds, events/s: untraced %.4g, traced %.4g", plain.eventRates(), lt.traced.eventRates()))
	if err := tr.write(traceDir); err != nil {
		return nil, err
	}
	return o, nil
}

func (t *tracer) setCounting(on bool) {
	t.mu.Lock()
	t.counting = on
	t.mu.Unlock()
}

// diverged counts positions where a round's digest differs from the
// first round's. Failed runs were counted when they failed.
func diverged(got, want []string) int {
	bad := 0
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] && !strings.HasPrefix(got[i], "error") && !strings.HasPrefix(want[i], "error") {
			bad++
		}
	}
	return bad
}

// writeAllocProfile writes the cumulative allocation profile, as of a
// fresh garbage collection, to path.
func writeAllocProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(tr *tracer, tab []spanStat, plain phase, lt *layerTrace, notes []string) (map[string]metric, []string) {
	c := tr.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r := func(a, b uint64) float64 { return ratio(float64(a), float64(b)) }
	run, snap := stat(tab, "World.RunUntil"), stat(tab, "checkpoint.Snapshot")
	m := map[string]metric{
		"sim.ns_per_event":          {ratio(run.TotalMS*1e6, float64(run.N)), "ns/event"},
		"sim.cancel_ratio":          {r(c.cancels, c.seq), "ratio"},
		"sim.export_ms":             {meanMS(tab, "Kernel.ExportState"), "ms"},
		"radio.receipts_per_frame":  {r(c.delivered+c.lost, c.sent), "receipts/frame"},
		"radio.delivery_ratio":      {r(c.delivered, c.delivered+c.lost), "ratio"},
		"radio.gain_hit_ratio":      {r(c.gainHits, c.gainHits+c.gainMiss), "ratio"},
		"radio.collisions":          {float64(c.collisions), "count"},
		"mac.backoffs_per_frame":    {r(c.backoffs, c.sentData), "backoffs/frame"},
		"mac.retry_ratio":           {r(c.retries, c.sentData), "ratio"},
		"mac.drops":                 {float64(c.drops), "count"},
		"netsim.call_timeout_ratio": {r(c.callsTimedOut, c.callsStarted), "ratio"},
		"discovery.lookups_served":  {float64(c.lookupsServed), "count"},
		"lease.expired_ratio":       {r(c.leasesExpired, c.leasesGranted), "ratio"},
		"trace.records_per_kevent":  {1000 * r(c.records, c.steps), "records/kevent"},
		"fault.injected":            {float64(c.injected), "count"},
		"scenario.build_ms":         {meanMS(tab, "scenario.Build"), "ms"},
		"checkpoint.digest_ms":      {meanMS(tab, "World.Digest"), "ms"},
		"checkpoint.snapshot_ms":    {meanMS(tab, "checkpoint.Snapshot"), "ms"},
		"checkpoint.snapshot_bytes": {ratio(float64(snap.N), float64(snap.Count)), "B"},
		"checkpoint.restore_ms":     {meanMS(tab, "checkpoint.ForkBuilt"), "ms"},
		"checkpoint.replay_share":   {ratio(stat(tab, "checkpoint.replay").TotalMS, stat(tab, "checkpoint.ForkBuilt").TotalMS), "ratio"},
		"checkpoint.export_ms":      {meanMS(tab, "World.ExportState"), "ms"},
		"gc.cpu_share":              {ratio(plain.sum(func(r roundStats) float64 { return r.gcCPU }), plain.sum(func(r roundStats) float64 { return r.cpu })), "ratio"},
		"alloc.objs_per_event":      {ratio(plain.sum(func(r roundStats) float64 { return float64(r.mallocs) }), plain.events()), "objects/event"},
		"trace_overhead_pct":        {100 * (ratio(plain.eventRate(), lt.traced.eventRate()) - 1), "%"},
	}

	pct := func(name string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		if p == 0.5 {
			v, ok = median(xs), len(xs) > 0
		}
		m[name] = metric{v, "ms"}
		if !ok && len(xs) > 0 {
			notes = append(notes, fmt.Sprintf("%s: %d samples, fewer than %d beyond p%g", name, len(xs), minBeyond, 100*p))
		}
	}
	requests := 0
	var ctl []float64
	for _, route := range routes {
		for _, side := range []string{"client", "server"} {
			xs := tr.durationsMS(side + "." + route)
			pct("daemon."+route+"."+side+"_p50_ms", xs, 0.5)
			pct("daemon."+route+"."+side+"_p90_ms", xs, 0.9)
		}
		client := tr.durationsMS("client." + route)
		requests += len(client)
		if route != "run" && route != "fork" {
			ctl = append(ctl, client...)
		}
	}
	pct("daemon.run.client_p99_ms", tr.durationsMS("client.run"), 0.99)
	pct("daemon.ctl.client_p99_ms", ctl, 0.99)
	m["daemon.req_per_s"] = metric{ratio(float64(requests), lt.traced.wall()), "req/s"}
	skipped, rendered := tr.tally["scrape.skipped"], tr.tally["scrape.rendered"]
	m["daemon.scrape_skip_ratio"] = metric{ratio(float64(skipped), float64(skipped+rendered)), "ratio"}

	for mod, v := range shares(lt.cpu, cpuModules) {
		m["cpu."+mod] = metric{v, "share"}
	}
	for mod, v := range shares(lt.alloc, modules) {
		m["alloc."+mod] = metric{v, "share"}
	}
	return m, notes
}

// resetPeakRSS makes the kernel restart the process's peak resident set
// size (VmHWM) from the current one, so that each round reads its own
// peak. Where /proc/self/clear_refs cannot be written, VmHWM stays the
// peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size (VmHWM) since the
// last resetPeakRSS.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// report prints the human-readable account of a run.
func report(w io.Writer, wl string, rc runCfg, seconds float64, o *outcome) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  rounds %d  %s\n", wl, rc.seed, seconds, o.rounds, hostLine())
	fmt.Fprintf(w, "digest-of-digests %s  attempted %d  failed %d  correct %v\n", o.dod, o.Attempted, o.Failed, o.Correct)
	if r := o.roundRates; len(r) > 0 {
		s := sortedCopy(r)
		fmt.Fprintf(w, "events/s by round: min %.4g  median %.4g  max %.4g\n  in order:", s[0], median(s), s[len(s)-1])
		for _, x := range r {
			fmt.Fprintf(w, " %.4g", x)
		}
		fmt.Fprintln(w)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, n := range sortedKeys(o.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	if len(o.layers) > 0 {
		fmt.Fprintf(w, "spans by self time:\n  %-28s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
		for _, s := range o.layers {
			fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
}

// hostLine describes the machine a run measured.
func hostLine() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
