// Package fault is the deterministic fault plane: a declarative plan of
// failure injections (device crashes, radio outages, channel jamming,
// region partitions, lookup-server outages) compiled onto the simulation
// kernel's event queue. Faults are scheduled as ordinary kernel events,
// so they participate in the (at, seq) total order like any other
// simulated cause; random choices (which device crashes) come from a
// dedicated fault RNG stream that never touches the kernel's own
// generator, so a fault-free run and a faulted run of the same seed
// differ only by the injected events themselves.
//
// The package is deliberately mechanism-free: it parses plans, derives
// the schedule, counts draws and injections, and fires typed hooks at
// the scheduled instants. What a "crash" actually does to a world —
// tearing down radio state, forgetting discovery memory — lives with
// the world that owns that state (pkg/aroma), keeping this package free
// of upward dependencies.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"aroma/internal/sim"
)

// Kind names one injectable failure mode.
type Kind string

const (
	// Crash takes a device fully offline for the window: its radio is
	// down (transmissions error, receptions skip it), and on restart the
	// device has forgotten its discovery memory — sessions and leases
	// must be re-established the hard way.
	Crash Kind = "crash"
	// RadioDown is Crash without the amnesia: the radio is unreachable
	// for the window but the device's soft state survives the outage.
	RadioDown Kind = "radio"
	// Jam adds LossDB of extra path loss to every link for the window —
	// an attenuation burst or wide-band jammer.
	Jam Kind = "jam"
	// Partition suppresses delivery across the arena's midline fence for
	// the window: two islands that cannot hear each other.
	Partition Kind = "partition"
	// Outage takes a lookup/lease server down for the window: discovery
	// requests to it time out and its announcements stop.
	Outage Kind = "outage"
)

// kinds lists every valid Kind, in canonical order.
var kinds = []Kind{Crash, RadioDown, Jam, Partition, Outage}

func validKind(k Kind) bool {
	for _, v := range kinds {
		if v == k {
			return true
		}
	}
	return false
}

// Spec is one fault family: a kind, a first occurrence, an optional
// repeat cadence, and the failure window each occurrence opens.
type Spec struct {
	Kind Kind
	// At is the simulated time of the first occurrence. Required, > 0.
	At sim.Time
	// Every is the repeat period between occurrences; meaningful only
	// when Count > 1.
	Every sim.Time
	// Count is the number of occurrences (default 1).
	Count int
	// For is the failure window each occurrence opens. Required, > 0.
	For sim.Time
	// LossDB is the extra path loss for Jam specs (default 30 dB).
	LossDB float64
	// Target optionally pins the victim by entity name; empty means the
	// injector picks one from the fault RNG stream at fire time.
	Target string
}

// Validate checks one spec.
func (s Spec) Validate() error {
	if !validKind(s.Kind) {
		return fmt.Errorf("fault: unknown kind %q", s.Kind)
	}
	if s.At <= 0 {
		return fmt.Errorf("fault: %s spec needs at > 0 (got %v)", s.Kind, s.At)
	}
	if s.For <= 0 {
		return fmt.Errorf("fault: %s spec needs for > 0 (got %v)", s.Kind, s.For)
	}
	if s.Count < 0 {
		return fmt.Errorf("fault: %s spec has negative count %d", s.Kind, s.Count)
	}
	if s.count() > 1 && s.Every <= 0 {
		return fmt.Errorf("fault: %s spec repeats (n=%d) but has no every", s.Kind, s.count())
	}
	if s.LossDB < 0 {
		return fmt.Errorf("fault: %s spec has negative loss %g", s.Kind, s.LossDB)
	}
	if s.Target != "" && (s.Kind == Jam || s.Kind == Partition) {
		return fmt.Errorf("fault: %s spec cannot take a target", s.Kind)
	}
	return nil
}

// count returns the effective occurrence count (Count defaulted to 1).
func (s Spec) count() int {
	if s.Count <= 0 {
		return 1
	}
	return s.Count
}

// lossDB returns the effective jam loss (defaulted to 30 dB).
func (s Spec) lossDB() float64 {
	if s.LossDB == 0 {
		return 30
	}
	return s.LossDB
}

// String renders the spec in the canonical plan grammar.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(string(s.Kind))
	fmt.Fprintf(&b, ":at=%s,for=%s", time.Duration(s.At), time.Duration(s.For))
	if s.count() > 1 {
		fmt.Fprintf(&b, ",every=%s,n=%d", time.Duration(s.Every), s.count())
	}
	if s.Kind == Jam && s.LossDB != 0 {
		fmt.Fprintf(&b, ",loss=%s", strconv.FormatFloat(s.LossDB, 'g', -1, 64))
	}
	if s.Target != "" {
		fmt.Fprintf(&b, ",target=%s", s.Target)
	}
	return b.String()
}

// Plan is a full fault schedule: zero or more spec families. The zero
// Plan injects nothing.
type Plan struct {
	Specs []Spec
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Specs) == 0 }

// Validate checks every spec.
func (p Plan) Validate() error {
	for _, s := range p.Specs {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan in the canonical grammar: specs joined by
// ";". Parse(p.String()) round-trips for any valid plan, so the string
// form is the wire/provenance representation.
func (p Plan) String() string {
	parts := make([]string, len(p.Specs))
	for i, s := range p.Specs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a plan from the grammar
//
//	spec (";" spec)*
//	spec = kind ":" key "=" val ("," key "=" val)*
//
// with kinds crash|radio|jam|partition|outage and keys
//
//	at     first occurrence (Go duration, e.g. 10s) — required
//	for    failure window per occurrence (Go duration) — required
//	every  repeat period (Go duration)
//	n      occurrence count (default 1)
//	loss   extra path loss in dB (jam only, default 30)
//	target victim entity name (crash/radio/outage only)
//
// Example: "crash:at=10s,for=5s,every=20s,n=2;jam:at=15s,for=10s,loss=30".
// An empty string — and the explicit alias "none" — parses to the empty
// plan, so a sweep's clean control arm can be spelled visibly.
func Parse(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec, err := parseSpec(part)
		if err != nil {
			return Plan{}, err
		}
		p.Specs = append(p.Specs, spec)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parseSpec(s string) (Spec, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("fault: spec %q has no kind: separator", s)
	}
	spec := Spec{Kind: Kind(strings.TrimSpace(kind))}
	if !validKind(spec.Kind) {
		return Spec{}, fmt.Errorf("fault: unknown kind %q (want one of %v)", kind, kinds)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: %s spec entry %q is not key=val", spec.Kind, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "at":
			spec.At, err = parseDur(val)
		case "for":
			spec.For, err = parseDur(val)
		case "every":
			spec.Every, err = parseDur(val)
		case "n":
			spec.Count, err = strconv.Atoi(val)
		case "loss":
			spec.LossDB, err = strconv.ParseFloat(val, 64)
		case "target":
			spec.Target = val
		default:
			return Spec{}, fmt.Errorf("fault: %s spec has unknown key %q", spec.Kind, key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: %s spec %s=%q: %v", spec.Kind, key, val, err)
		}
	}
	return spec, nil
}

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(d), nil
}
