package radio_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aroma/internal/fault"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios"
)

// worldInput is one generated world: a registered scenario with its
// numeric parameters, a seed, a horizon, a fault plan, a snapshot
// instant and the RunUntil slice points of one sliced run. The instant
// and the slice points are fractions of the built world's horizon (in
// 1/0xffff), since a scenario may not run to the configured one.
type worldInput struct {
	name   string
	cfg    scenario.Config
	snapAt uint16
	cuts   []uint16
}

// at returns fraction f of horizon h.
func at(f uint16, h sim.Time) sim.Time { return h * sim.Time(f) / 0xffff }

const (
	// maxHorizon bounds a generated world's simulated time.
	maxHorizon = 30 * sim.Second
	// checkSlice is the step at which the medium's oracles are checked.
	checkSlice = 50 * sim.Millisecond
	// maxSlices bounds the sliced run's RunUntil calls.
	maxSlices = 8
)

// faultKinds are the fault grammar's kinds, in the order a plan byte
// picks them.
var faultKinds = [...]fault.Kind{fault.Crash, fault.RadioDown, fault.Jam, fault.Partition, fault.Outage}

// faultTargets are victims a crash, radio or outage spec may name: ""
// lets the fault RNG pick, the others are entities of the stock
// scenarios, and "nobody" names none.
var faultTargets = [...]string{"", "", "lookup", "projector", "alice", "nobody"}

// decodeWorld maps fuzz arguments to a world small enough to run well
// under a second. knobs carries the numeric parameters (radios, side,
// speed, beacon) scenarios read where they have them; a scenario
// without one ignores it. Each plan spec takes six bytes.
func decodeWorld(pick uint8, knobs uint32, seed int64, horizonMS uint16, plan []byte, snapAt uint16, cuts []byte) (worldInput, error) {
	names := scenario.Names()
	h := sim.Time(1+int(horizonMS)%int(maxHorizon/sim.Millisecond)) * sim.Millisecond
	in := worldInput{name: names[int(pick)%len(names)], cfg: scenario.Config{
		Seed:    seed,
		Horizon: h,
		Params: map[string]string{
			"radios": strconv.Itoa(2 + int(knobs&15)),                           // 2–17 radios
			"side":   strconv.Itoa(100 + 10*int(knobs>>6&31)),                   // 100–410 m
			"speed":  strconv.FormatFloat(float64(knobs>>11&15)/2, 'g', -1, 64), // 0–7.5 m/s
			"beacon": strconv.Itoa(300 + 100*int(knobs>>15&7)),                  // 300–1000 ms
		},
	}}
	var specs []string
	for len(plan) >= 6 && len(specs) < 3 {
		b := plan[:6]
		plan = plan[6:]
		kind := faultKinds[int(b[0])%len(faultKinds)]
		at := sim.Time(1+int(b[1])) * 100 * sim.Millisecond
		dur := sim.Time(1+int(b[2])) * 50 * sim.Millisecond
		spec := fmt.Sprintf("%s:at=%s,for=%s", kind, at, dur)
		if n := 1 + int(b[3])%3; n > 1 {
			spec += fmt.Sprintf(",every=%s,n=%d", sim.Time(1+int(b[3])/3)*200*sim.Millisecond, n)
		}
		switch kind {
		case fault.Jam:
			spec += fmt.Sprintf(",loss=%d", 5+int(b[4])%60)
		case fault.Partition:
		default:
			if target := faultTargets[int(b[5])%len(faultTargets)]; target != "" {
				spec += ",target=" + target
			}
		}
		specs = append(specs, spec)
	}
	in.cfg.Faults = strings.Join(specs, ";")
	if _, err := fault.Parse(in.cfg.Faults); err != nil {
		return in, fmt.Errorf("generated plan %q does not parse: %v", in.cfg.Faults, err)
	}
	in.snapAt = snapAt
	for len(cuts) >= 2 && len(in.cuts) < maxSlices {
		in.cuts = append(in.cuts, uint16(cuts[0])<<8|uint16(cuts[1]))
		cuts = cuts[2:]
	}
	slices.Sort(in.cuts)
	return in, nil
}

// outcome is what the contracts compare between two runs of a world.
type outcome struct {
	digest     string
	steps, seq uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("digest %s, %d steps, seq %d", o.digest, o.steps, o.seq)
}

// build builds the input's world, optionally instrumented.
func (in worldInput) build(t *testing.T, metrics bool) *scenario.Built {
	t.Helper()
	cfg := in.cfg
	cfg.Metrics = metrics
	b, err := scenario.Build(in.name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", in, err)
	}
	return b
}

func (in worldInput) String() string {
	return fmt.Sprintf("%s seed=%d horizon=%s params=%v faults=%q snapshot=%d/65535 slices=%v/65535",
		in.name, in.cfg.Seed, in.cfg.Horizon, in.cfg.Params, in.cfg.Faults, in.snapAt, in.cuts)
}

func result(b *scenario.Built) outcome {
	k := b.World.Kernel()
	return outcome{b.World.Digest(), k.Steps(), k.Seq()}
}

// checkWorldContracts runs the input's world several ways and requires
// them all to agree: two plain runs (digest and state bytes), an
// instrumented run, a run cut into the input's slices, a run checked
// against the medium's oracles every 50 ms, and a run snapshotted at
// the input's instant and restored.
func checkWorldContracts(t *testing.T, in worldInput) {
	t.Helper()
	state := func(b *scenario.Built) []byte {
		data, err := b.World.MarshalState()
		if err != nil {
			t.Fatalf("%s: marshal state: %v", in, err)
		}
		return data
	}

	a := in.build(t, false)
	a.World.RunUntil(a.Horizon)
	want, wantState := result(a), state(a)

	again := in.build(t, false)
	again.World.RunUntil(again.Horizon)
	if got := result(again); got.digest != want.digest || !bytes.Equal(state(again), wantState) {
		t.Fatalf("%s: a second run differs: %v (state equal %v), first %v",
			in, got, bytes.Equal(state(again), wantState), want)
	}

	tel := in.build(t, true)
	tel.World.RunUntil(tel.Horizon)
	if got := result(tel); got != want {
		t.Fatalf("%s: with telemetry %v, without %v", in, got, want)
	}

	sliced := in.build(t, false)
	for _, f := range in.cuts {
		sliced.World.RunUntil(at(f, sliced.Horizon))
	}
	sliced.World.RunUntil(sliced.Horizon)
	if got := result(sliced); got != want {
		t.Fatalf("%s: run in slices %v, in one RunUntil %v", in, got, want)
	}

	checked := in.build(t, false)
	m := checked.World.Medium()
	for now := sim.Time(0); now < checked.Horizon; {
		now = min(now+checkSlice, checked.Horizon)
		checked.World.RunUntil(now)
		if err := radio.CheckHearers(m); err != nil {
			t.Fatalf("%s: at %s: %v", in, now, err)
		}
		if err := radio.CheckBusy(m); err != nil {
			t.Fatalf("%s: at %s: %v", in, now, err)
		}
	}
	if got := result(checked); got != want {
		t.Fatalf("%s: run in %s slices %v, in one RunUntil %v", in, checkSlice, got, want)
	}

	snap := in.build(t, false)
	snap.World.RunUntil(at(in.snapAt, snap.Horizon))
	data, err := checkpoint.Snapshot(snap.World)
	if err != nil {
		t.Fatalf("%s: snapshot: %v", in, err)
	}
	restored, err := checkpoint.RestoreBuilt(data)
	if err != nil {
		t.Fatalf("%s: restore: %v", in, err)
	}
	restored.World.RunUntil(restored.Horizon)
	if got := restored.World.Digest(); got != want.digest {
		t.Fatalf("%s: restored run digest %s, uninterrupted %s", in, got, want.digest)
	}
}

// FuzzWorldContracts proves the determinism contracts on generated
// worlds: any registered scenario, with its numeric parameters, any
// seed, a horizon up to 30 s, a fault plan in the fault grammar, a
// snapshot instant and up to eight RunUntil slice points. For each,
// the same seed gives the same digest and state bytes, telemetry is a
// pure observer, slicing a run changes nothing, restore equals the
// uninterrupted run, and the medium's hearers and carrier sense match
// their oracles at every 50 ms slice.
func FuzzWorldContracts(f *testing.F) {
	// Every registered scenario with no plan of its own (faultstorm
	// then arms its default storm), then each fault kind on the worlds
	// it bites: a jam and a partition on a mobile dense floor, a crash
	// and a radio outage among the faultstorm appliances, a lookup
	// outage in the lab.
	for i := range scenario.Names() {
		f.Add(uint8(i), uint32(0x1234), int64(7), uint16(4000), []byte(nil), uint16(0x8000), []byte{0x40, 0, 0x80, 0, 0xc0, 0})
	}
	pickOf := func(name string) uint8 { return uint8(slices.Index(scenario.Names(), name)) }
	for i, tc := range []struct {
		scen string
		spec []byte
	}{
		{"faultstorm", []byte{0, 10, 20, 4, 0, 0}},  // crash, twice
		{"faultstorm", []byte{1, 5, 30, 0, 0, 2}},   // radio, on the lookup
		{"mobiledense", []byte{2, 4, 10, 0, 30, 0}}, // jam
		{"mobiledense", []byte{3, 6, 12, 0, 0, 0}},  // partition
		{"lab", []byte{4, 20, 40, 0, 0, 2}},         // outage of the lookup
	} {
		f.Add(pickOf(tc.scen), uint32(0x2a5+i), int64(1+i), uint16(6000), tc.spec, uint16(0x6000), []byte{0x10, 0, 0x90, 0x33})
	}
	f.Fuzz(func(t *testing.T, pick uint8, knobs uint32, seed int64, horizonMS uint16, plan []byte, snapAt uint16, cuts []byte) {
		in, err := decodeWorld(pick, knobs, seed, horizonMS, plan, snapAt, cuts)
		if err != nil {
			t.Fatal(err)
		}
		checkWorldContracts(t, in)
	})
}
