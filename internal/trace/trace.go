// Package trace records structured simulation events tagged with the LPC
// layer they belong to. The Smart Projector analysis in the paper is an
// exercise in classifying concerns into layers; the trace is the mechanism
// by which the running system reports its concerns so the analyzer in
// internal/core can classify them.
package trace

import (
	"fmt"
	"strings"

	"aroma/internal/sim"
)

// Layer identifies one of the five levels of the Layered Pervasive
// Computing model, bottom-up as the paper presents them.
type Layer int

// The five LPC layers (paper Figure 1).
const (
	Environment Layer = iota
	Physical
	Resource
	Abstract
	Intentional
	numLayers
)

// Layers lists all layers bottom-up.
func Layers() []Layer {
	return []Layer{Environment, Physical, Resource, Abstract, Intentional}
}

// String returns the layer name as used in the paper.
func (l Layer) String() string {
	switch l {
	case Environment:
		return "Environment"
	case Physical:
		return "Physical"
	case Resource:
		return "Resource"
	case Abstract:
		return "Abstract"
	case Intentional:
		return "Intentional"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Severity grades an event.
type Severity int

// Severity levels, from routine bookkeeping to layer-relation violations.
const (
	Debug Severity = iota
	Info
	Issue     // a concern worth classifying (the paper's "issues")
	Violation // a broken cross-layer relation (e.g. hijack attempt, frustration)
)

// String returns a short name for the severity.
func (s Severity) String() string {
	switch s {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Issue:
		return "ISSUE"
	case Violation:
		return "VIOLATION"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Event is one recorded occurrence. The message is formatted lazily:
// recording stores the format string and arguments, and the final text
// is produced (once) on the first Message call — typically at analysis
// or render time, long after the hot loop has moved on. Events recorded
// without arguments skip even that and carry the string directly.
//
// Lazy formatting requires that arguments be immutable snapshots
// (numbers, strings, error values — not pointers to state that keeps
// mutating after the record), which is also what deterministic digests
// require of them.
type Event struct {
	At       sim.Time
	Layer    Layer
	Severity Severity
	Entity   string // which device/user/service reported it

	text string   // the message when no args were given (fast path)
	msg  *lazyMsg // deferred format+args otherwise
}

// lazyMsg defers fmt.Sprintf until the first read. The pointer is
// shared by every copy of the Event, so formatting happens at most once
// per recorded event; the simulation model is single-threaded, so no
// lock is needed.
type lazyMsg struct {
	format string
	args   []any
	done   bool
	text   string
}

func (m *lazyMsg) message() string {
	if !m.done {
		m.text = fmt.Sprintf(m.format, m.args...)
		m.args = nil
		m.done = true
	}
	return m.text
}

// Message returns the formatted event message.
func (e Event) Message() string {
	if e.msg != nil {
		return e.msg.message()
	}
	return e.text
}

// String formats the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-11s %-9s %-16s %s",
		e.At, e.Layer, e.Severity, e.Entity, e.Message())
}

// Log collects events. A nil *Log is valid and discards everything, so
// model code can trace unconditionally.
type Log struct {
	clock   func() sim.Time
	events  []Event
	minKeep Severity

	// OnRecord, if set, observes every kept event immediately after it is
	// appended, in record order. It is the bridge by which live consumers
	// (e.g. the pkg/aroma event bus) subscribe to the trace without
	// polling. The callback must not mutate the log.
	OnRecord func(Event)
}

// New creates a log that timestamps events with the given clock function.
// A nil clock stamps everything at time zero.
func New(clock func() sim.Time) *Log {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &Log{clock: clock, minKeep: Debug}
}

// NewForKernel creates a log bound to a simulation kernel's clock.
func NewForKernel(k *sim.Kernel) *Log { return New(k.Now) }

// SetMinSeverity discards future events below sev.
func (l *Log) SetMinSeverity(sev Severity) {
	if l == nil {
		return
	}
	l.minKeep = sev
}

// Record appends an event. Recording to a nil log or below the minimum
// severity is a no-op that performs no formatting, so model code can
// trace unconditionally from its innermost loops; a filtered-out call
// with no arguments allocates nothing at all (a call with arguments
// still pays the caller's variadic boxing — a small allocation, never a
// Sprintf). Kept events defer fmt.Sprintf to the first read of
// Event.Message, and the no-argument form skips formatting entirely.
// Arguments must be immutable snapshots (see Event).
//
//aroma:kept trace layer: the general form of Issue/Info/Violation and the only way to record at Debug
func (l *Log) Record(layer Layer, sev Severity, entity, format string, args ...any) {
	if l == nil || sev < l.minKeep {
		return
	}
	l.record(layer, sev, entity, format, args)
}

// record is the kept-event slow path, kept out of Record so the
// filtered fast path stays inlinable at every call site.
func (l *Log) record(layer Layer, sev Severity, entity, format string, args []any) {
	ev := Event{
		At:       l.clock(),
		Layer:    layer,
		Severity: sev,
		Entity:   entity,
	}
	if len(args) == 0 {
		ev.text = format
	} else {
		ev.msg = &lazyMsg{format: format, args: args}
	}
	l.events = append(l.events, ev)
	if l.OnRecord != nil {
		l.OnRecord(ev)
	}
}

// Issue records an Issue-severity event. Like Record, a filtered-out
// call allocates nothing and a no-argument call never formats.
func (l *Log) Issue(layer Layer, entity, format string, args ...any) {
	if l == nil || Issue < l.minKeep {
		return
	}
	l.record(layer, Issue, entity, format, args)
}

// Violation records a Violation-severity event. Like Record, a
// filtered-out call allocates nothing and a no-argument call never
// formats.
func (l *Log) Violation(layer Layer, entity, format string, args ...any) {
	if l == nil || Violation < l.minKeep {
		return
	}
	l.record(layer, Violation, entity, format, args)
}

// Info records an Info-severity event. Like Record, a filtered-out
// call allocates nothing and a no-argument call never formats.
func (l *Log) Info(layer Layer, entity, format string, args ...any) {
	if l == nil || Info < l.minKeep {
		return
	}
	l.record(layer, Info, entity, format, args)
}

// Events returns all recorded events in order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// BySeverity returns events at or above the given severity.
func (l *Log) BySeverity(min Severity) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Severity >= min {
			out = append(out, e)
		}
	}
	return out
}

// Render formats events at or above min severity, one per line.
func (l *Log) Render(min Severity) string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range l.events {
		if e.Severity >= min {
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
