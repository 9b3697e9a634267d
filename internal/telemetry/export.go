package telemetry

import (
	"io"
	"slices"
	"sort"
	"strconv"
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
	Series []Point           `json:"series,omitempty"`
}

// Snapshot is a registry's full exported state. Instruments are sorted
// by (name, labels) so two snapshots of identical state render
// byte-identically.
type Snapshot struct {
	// At is the virtual time of the snapshot in nanoseconds.
	At          int64                `json:"at"`
	Instruments []InstrumentSnapshot `json:"instruments"`
}

// Snapshot exports every instrument. Sim-plane values must be read on
// the kernel goroutine; see the Registry threading contract. The
// returned series share the registry's arrays without copying, and
// later samples never change them.
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
		if n := len(in.series.pts); n > 0 {
			// Zero-copy. The series appends past n, which the snapshot
			// never reads, and once shared decimates into a fresh
			// array; the capped slice stops the snapshot holder's own
			// appends from writing into the live array.
			is.Series = in.series.pts[:n:n]
			in.series.shared = true
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

// renderLabels renders the merged, key-sorted label set as {k="v",...},
// or "" when there are no labels. Values are escaped once and put in
// double quotes.
func renderLabels(labels []Label, common []Label) string {
	merged := make([]Label, 0, len(labels)+len(common))
	merged = append(merged, common...)
	merged = append(merged, labels...)
	if len(merged) == 0 {
		return ""
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	b := []byte{'{'}
	for i, l := range merged {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, '"')
		b = append(b, escapeLabel(l.Value)...)
		b = append(b, '"')
	}
	return string(append(b, '}'))
}

// appendValue appends a sample value: integral values as integers,
// everything else (fractions, ±Inf, NaN, magnitudes past int64) in the
// shortest form that round-trips.
func appendValue(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// promSkeleton is the static part of a registry's exposition for one
// common-label set: every line's text up to its value, in output order,
// and where each value comes from. Only values change between scrapes
// of the same instruments, so a scrape formats values into buf and
// nothing else.
type promSkeleton struct {
	n       int     // instrument count the skeleton was built for
	common  []Label // common labels it was built for
	text    []byte  // all lines' static parts, back to back
	samples []promSample
	buf     []byte // the rendered exposition, reused across scrapes
}

// promSample is one exposition line. Its static text ends at text[end];
// its value is in's scalar.
type promSample struct {
	end int
	in  *instrument
}

// promLine is one line of the skeleton before sorting.
type promLine struct {
	metric string // prometheus metric name
	typ    string // counter | gauge
	labels string // rendered {..} including braces, "" when no labels
	in     *instrument
}

func (p *promSkeleton) build(insts []*instrument, common []Label) {
	lines := make([]promLine, 0, len(insts))
	for _, in := range insts {
		typ := "counter"
		if in.kind == kindGaugeFunc {
			typ = "gauge"
		}
		lines = append(lines, promLine{promName(in.name), typ, renderLabels(in.labels, common), in})
	}
	// Stable output: sort by metric name then labels, and emit one
	// # TYPE comment per metric name group.
	sort.SliceStable(lines, func(i, j int) bool {
		if lines[i].metric != lines[j].metric {
			return lines[i].metric < lines[j].metric
		}
		return lines[i].labels < lines[j].labels
	})
	text, samples := p.text[:0], p.samples[:0]
	prev := ""
	for _, ln := range lines {
		if ln.metric != prev {
			text = append(text, "# TYPE "...)
			text = append(text, ln.metric...)
			text = append(text, ' ')
			text = append(text, ln.typ...)
			text = append(text, '\n')
			prev = ln.metric
		}
		text = append(text, ln.metric...)
		text = append(text, ln.labels...)
		text = append(text, ' ')
		samples = append(samples, promSample{end: len(text), in: ln.in})
	}
	p.text, p.samples = text, samples
	p.n = len(insts)
	p.common = append(p.common[:0], common...)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, with common labels (typically world="id") merged
// into every sample. Sim-plane values must be read on the kernel
// goroutine; the daemon routes scrapes through each world's command
// loop. The skeleton is rebuilt only when instruments were registered
// or the common labels changed since the last scrape; otherwise a
// scrape allocates nothing and issues one Write, made without holding
// the registry's lock.
func (r *Registry) WritePrometheus(w io.Writer, common ...Label) error {
	r.promMu.Lock()
	b := r.render(common)
	r.promMu.Unlock()
	_, err := w.Write(b)
	// Hand the buffer back for the next scrape; a scrape that ran in
	// the meantime rendered into a buffer of its own.
	r.promMu.Lock()
	r.prom.buf = b
	r.promMu.Unlock()
	return err
}

// render formats the exposition into the skeleton's buffer and takes
// the buffer out of the skeleton until WritePrometheus hands it back.
// The caller holds promMu.
func (r *Registry) render(common []Label) []byte {
	p := &r.prom
	if p.n != len(r.insts) || !slices.Equal(p.common, common) {
		p.build(r.insts, common)
	}
	b, start := p.buf[:0], 0
	p.buf = nil
	for _, sm := range p.samples {
		b = append(b, p.text[start:sm.end]...)
		start = sm.end
		b = appendValue(b, r.scalar(sm.in))
		b = append(b, '\n')
	}
	return b
}
