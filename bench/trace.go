package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aroma/pkg/aroma"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share their root through Parent links; the service
// workload links each server-side span to the client call that caused
// it through a request header.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work done inside the span where the benchmark can count it:
	// kernel steps for World.RunUntil, bytes for checkpoint.Snapshot.
	N uint64 `json:"n,omitempty"`
}

// tracer keeps spans and per-layer counts in memory. A zero tracer is off: every method returns at once, so the
// timed runs pay one branch per call site.
type tracer struct {
	on   bool
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
	tally map[string]int // event counts the benchmark sees, by name
	// counting gates observe's world counters: worlds are counted for
	// one round's worth of work, so counts do not grow with how many
	// rounds a run fits.
	counting bool
	counts   counts
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), tally: map[string]int{}, counting: true}
}

func (t *tracer) start(name string, parent uint64) span {
	if !t.on {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()}
}

func (t *tracer) end(s span, n uint64) {
	if !t.on {
		return
	}
	s.End, s.N = time.Since(t.t0).Nanoseconds(), n
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(key string, n int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.tally[key] += n
	t.mu.Unlock()
}

// observe times the read-only whole-world calls a run's consumer makes —
// digest, full state export, kernel export — and, while counting, adds
// the world's layer counters. Called after a world reaches its horizon;
// none of the calls changes the world's digest trajectory.
func (t *tracer) observe(w *aroma.World, parent uint64) {
	if !t.on {
		return
	}
	s := t.start("World.Digest", parent)
	w.Digest()
	t.end(s, 0)
	s = t.start("World.ExportState", parent)
	st := w.ExportState()
	t.end(s, 0)
	s = t.start("Kernel.ExportState", parent)
	w.Kernel().ExportState()
	t.end(s, 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counting {
		t.counts.add(w, &st)
	}
}

// counts are layer counters summed over the worlds of one round, read
// from the layers' public fields after each world's run.
type counts struct {
	steps, seq, cancels                                   uint64
	sent, delivered, lost, collisions, gainHits, gainMiss uint64
	backoffs, retries, sentData, drops                    uint64
	callsStarted, callsTimedOut                           uint64
	lookupsServed, leasesGranted, leasesExpired           uint64
	records, injected                                     uint64
}

func (c *counts) add(w *aroma.World, st *aroma.WorldState) {
	k := w.Kernel()
	c.steps += k.Steps()
	c.seq += k.Seq()
	c.cancels += k.Cancels()
	m := w.Medium()
	c.sent += m.Sent
	c.delivered += m.Delivered
	c.lost += m.Lost
	c.collisions += m.Collisions
	c.gainHits += m.GainHits
	c.gainMiss += m.GainMisses
	mc := w.MAC()
	c.backoffs += mc.Backoffs
	c.retries += mc.Retries
	c.sentData += mc.SentData
	c.drops += mc.Drops
	n := w.Network()
	c.callsStarted += n.CallsStarted
	c.callsTimedOut += n.CallsTimedOut
	for _, lk := range w.Lookups() {
		c.lookupsServed += lk.LookupsServed
		c.leasesGranted += lk.Leases().Granted
		c.leasesExpired += lk.Leases().Expired
	}
	c.records += uint64(len(w.Log().Events()))
	if f := st.Faults; f != nil {
		c.injected += f.Crashes + f.RadioDowns + f.Jams + f.Partitions + f.Outages
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the time covered by child spans.
	SelfMS float64 `json:"self_ms"`
	N      uint64  `json:"n,omitempty"`
}

// table returns per-name span totals with self time, sorted by self
// time, largest first.
func (t *tracer) table() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.Count++
		st.TotalMS += d / 1e6
		st.SelfMS += (d - float64(covered(s, children[s.ID]))) / 1e6
		st.N += s.N
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of the parent's interval the union of its
// children's intervals covers, in nanoseconds.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// durationsMS returns the durations of the named spans in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return xs
}

// stat returns the aggregate for one span name.
func stat(tab []spanStat, name string) spanStat {
	for _, s := range tab {
		if s.Name == name {
			return s
		}
	}
	return spanStat{Name: name}
}

// meanMS is the mean duration of the named spans, 0 when there are none.
func meanMS(tab []spanStat, name string) float64 {
	s := stat(tab, name)
	if s.Count == 0 {
		return 0
	}
	return s.TotalMS / float64(s.Count)
}

// write stores spans.json and layers.json in dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(t.table(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), layers, 0o644)
}
