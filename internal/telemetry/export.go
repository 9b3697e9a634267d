package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// InstrumentSnapshot is one instrument's exported state: identity,
// current value, and (for sampled sim-plane instruments) the sim-time
// series.
type InstrumentSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// Count carries the observation count for histograms (Value is
	// then the histogram N).
	Count  int64   `json:"count,omitempty"`
	Series []Point `json:"series,omitempty"`
}

// Snapshot is a registry's full exported state. Instruments are sorted
// by (name, labels) so two snapshots of identical state render
// byte-identically.
type Snapshot struct {
	// At is the virtual time of the snapshot in nanoseconds.
	At          int64                `json:"at"`
	Instruments []InstrumentSnapshot `json:"instruments"`
}

// Value returns the named instrument's scalar value and whether it
// exists. Label-bearing instruments match on name alone only when the
// name is unique; otherwise the first in sort order wins.
func (s *Snapshot) Value(name string) (float64, bool) {
	for i := range s.Instruments {
		if s.Instruments[i].Name == name {
			return s.Instruments[i].Value, true
		}
	}
	return 0, false
}

// Snapshot exports every instrument. Sim-plane values must be read on
// the kernel goroutine; see the Registry threading contract.
func (r *Registry) Snapshot(atNanos int64) *Snapshot {
	s := &Snapshot{At: atNanos, Instruments: make([]InstrumentSnapshot, 0, len(r.insts))}
	for _, in := range r.insts {
		is := InstrumentSnapshot{
			Name:  in.name,
			Kind:  in.kind.String(),
			Value: r.scalar(in),
		}
		if len(in.labels) > 0 {
			is.Labels = make(map[string]string, len(in.labels))
			for _, l := range in.labels {
				is.Labels[l.Key] = l.Value
			}
		}
		if in.kind == kindHistogram {
			is.Count = int64(in.hist.N())
		}
		if in.kind.sampled() {
			is.Series = in.series.pts
		}
		s.Instruments = append(s.Instruments, is)
	}
	sort.Slice(s.Instruments, func(i, j int) bool {
		a, b := &s.Instruments[i], &s.Instruments[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelKey(a.Labels) < labelKey(b.Labels)
	})
	return s
}

func labelKey(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(',')
	}
	return b.String()
}

// promName maps a dotted instrument name to its Prometheus form:
// "aroma_" prefix, dots to underscores, anything outside [a-zA-Z0-9_]
// to underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 6)
	b.WriteString("aroma_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promLine is one rendered sample plus the grouping metadata needed for
// # TYPE comments.
type promLine struct {
	metric string // prometheus metric name
	typ    string // counter | gauge | histogram
	labels string // rendered {..} including braces, "" when no labels
	value  string
}

func renderLabels(labels []Label, common []Label, extra ...Label) string {
	merged := make([]Label, 0, len(labels)+len(common)+len(extra))
	merged = append(merged, common...)
	merged = append(merged, labels...)
	merged = append(merged, extra...)
	if len(merged) == 0 {
		return ""
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range merged {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, with common labels (typically world="id") merged
// into every sample. Sim-plane values must be read on the kernel
// goroutine; the daemon routes scrapes through each world's command
// loop.
func (r *Registry) WritePrometheus(w io.Writer, common ...Label) error {
	lines := make([]promLine, 0, len(r.insts)+8)
	for _, in := range r.insts {
		pn := promName(in.name)
		switch in.kind {
		case kindCounter, kindCounterFunc, kindHostCounter:
			lines = append(lines, promLine{pn, "counter", renderLabels(in.labels, common), formatValue(r.scalar(in))})
		case kindGauge, kindGaugeFunc:
			lines = append(lines, promLine{pn, "gauge", renderLabels(in.labels, common), formatValue(r.scalar(in))})
		case kindHistogram:
			h := in.hist
			n := h.NumBuckets()
			width := (in.hi - in.lo) / float64(n)
			under, _ := h.OutOfRange()
			cum := under // observations below lo are <= every bound
			for i := 0; i < n; i++ {
				cum += h.Bucket(i)
				le := L("le", formatValue(in.lo+float64(i+1)*width))
				lines = append(lines, promLine{pn + "_bucket", "histogram", renderLabels(in.labels, common, le), formatValue(float64(cum))})
			}
			lines = append(lines,
				promLine{pn + "_bucket", "histogram", renderLabels(in.labels, common, L("le", "+Inf")), formatValue(float64(h.N()))},
				promLine{pn + "_count", "histogram", renderLabels(in.labels, common), formatValue(float64(h.N()))})
		}
	}
	// Stable output: sort by metric name then labels, and emit one
	// # TYPE comment per metric name group.
	sort.SliceStable(lines, func(i, j int) bool {
		if lines[i].metric != lines[j].metric {
			return lines[i].metric < lines[j].metric
		}
		return lines[i].labels < lines[j].labels
	})
	var b strings.Builder
	prev := ""
	for _, ln := range lines {
		if ln.metric != prev {
			// Histogram series (_bucket/_count) share one conceptual
			// family but render as separate metric names; typing each
			// as its own group keeps the writer trivial and every
			// scraper accepts it.
			fmt.Fprintf(&b, "# TYPE %s %s\n", ln.metric, typeFor(ln))
			prev = ln.metric
		}
		b.WriteString(ln.metric)
		b.WriteString(ln.labels)
		b.WriteByte(' ')
		b.WriteString(ln.value)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// typeFor maps histogram sub-series to scrapable primitive types; a
// cumulative _bucket/_count pair emitted as counters is valid for any
// Prometheus server, while a true "histogram" TYPE would require the
// un-suffixed family name.
func typeFor(ln promLine) string {
	if ln.typ == "histogram" {
		return "counter"
	}
	return ln.typ
}
