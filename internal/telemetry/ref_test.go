package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file keeps the reference implementations the production code
// must match byte for byte: the series that grew by append and
// decimated in place, and the exposition writer that sorted and
// fmt-rendered every line on every scrape. FuzzTelemetryMatchesReference
// drives both sides with the same operations and compares every point
// and every exposition byte.

// refSeries is a bounded, deterministically decimated point list.
type refSeries struct {
	pts    []Point
	stride uint64 // record every stride-th sample; doubles on decimation
	phase  uint64 // samples seen modulo nothing; compared against stride
}

func (s *refSeries) add(t int64, v float64) {
	if s.stride == 0 {
		s.stride = 1
	}
	s.phase++
	if s.phase%s.stride != 0 {
		return
	}
	if len(s.pts) >= maxPoints {
		// Keep odd positions: with the stride doubling below, the
		// retained points are exactly the samples a fresh series with
		// the doubled stride would have kept.
		kept := s.pts[:0]
		for i := 1; i < len(s.pts); i += 2 {
			kept = append(kept, s.pts[i])
		}
		s.pts = kept
		s.stride *= 2
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// refPromLine is one rendered sample plus the grouping metadata needed
// for # TYPE comments.
type refPromLine struct {
	metric string // prometheus metric name
	typ    string // counter | gauge
	labels string // rendered {..} including braces, "" when no labels
	value  string
}

// refLabelEscaper escapes a label value per the Prometheus text format:
// backslash, double quote and newline, nothing else.
var refLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func refRenderLabels(labels []Label, common []Label) string {
	merged := make([]Label, 0, len(labels)+len(common))
	merged = append(merged, common...)
	merged = append(merged, labels...)
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
		fmt.Fprintf(&b, `%s="%s"`, l.Key, refLabelEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func refFormatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// refWritePrometheus renders every instrument in the Prometheus text
// exposition format, with common labels (typically world="id") merged
// into every sample.
func refWritePrometheus(r *Registry, w io.Writer, common ...Label) error {
	lines := make([]refPromLine, 0, len(r.insts)+8)
	for _, in := range r.insts {
		pn := promName(in.name)
		switch in.kind {
		case kindCounterFunc, kindHostCounter:
			lines = append(lines, refPromLine{pn, "counter", refRenderLabels(in.labels, common), refFormatValue(r.scalar(in))})
		case kindGaugeFunc:
			lines = append(lines, refPromLine{pn, "gauge", refRenderLabels(in.labels, common), refFormatValue(r.scalar(in))})
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
			fmt.Fprintf(&b, "# TYPE %s %s\n", ln.metric, ln.typ)
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
