// Package checkpoint serializes and restores whole Aroma worlds.
//
// A world is a deterministic function of its build recipe: the scenario
// builder assembles every device, user, and scheduled stimulus at
// virtual time zero, and from there the kernel's (at, seq) event order
// and seeded generator decide everything. A snapshot therefore needs
// two things: the recipe (aroma.Provenance — scenario, config, fork
// lineage) and a canonical export of the world's state at the snapshot
// instant. RestoreBuilt replays the recipe — rebuild, re-apply each
// fork at its recorded instant, run to the snapshot time — and then
// proves the replay by comparing the replayed world's exported state and
// digest byte-for-byte against the snapshot's. A mismatch means the
// model has lost determinism, and RestoreBuilt fails loudly rather than
// hand back a silently divergent world.
//
// Replay is what makes the closure wall tractable: pending kernel
// events hold Go closures (beacon tickers, MAC timers, RPC
// completions), which no serializer can capture. Rebuilding mints
// byte-identical queue state — the exported pending list, with each
// event's (at, seq, label), is compared to prove it — without ever
// representing a closure on disk.
//
// The determinism contract for restore: for any registered scenario,
// any seed, and any snapshot instant, RestoreBuilt(Snapshot(w)) yields a
// world whose digest trajectory from that instant on is bit-identical
// to the original's. The round-trip suite enforces this for every
// registered scenario at multiple seeds.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"aroma/internal/sim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

// Version is the snapshot format version.
const Version = 1

// Image is the decoded form of a snapshot: the recipe that rebuilds the
// world plus the canonical state export that proves the rebuild.
type Image struct {
	Version    int              `json:"version"`
	Provenance aroma.Provenance `json:"provenance"`
	Now        sim.Time         `json:"now"`
	Steps      uint64           `json:"steps"`
	Digest     string           `json:"digest"`
	State      aroma.WorldState `json:"state"`
}

// Snapshot serializes the world. The world must carry provenance (every
// world built through scenario.Build does). Snapshot first drains the
// events scheduled at exactly the current instant — a snapshot is taken
// at a closed instant, so that a replay's RunUntil reaches the same
// point — then exports every layer's state.
func Snapshot(w *aroma.World) ([]byte, error) {
	prov, ok := w.Provenance()
	if !ok {
		return nil, fmt.Errorf("checkpoint: world %q has no provenance (build it through scenario.Build)", w.Name())
	}
	w.RunUntil(w.Now()) // close the instant
	img := Image{
		Version:    Version,
		Provenance: prov,
		Now:        w.Now(),
		Steps:      w.Kernel().Steps(),
		Digest:     w.Digest(),
		State:      w.ExportState(),
	}
	return json.Marshal(&img)
}

// Decode parses a snapshot without restoring it.
func Decode(data []byte) (*Image, error) {
	var img Image
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("checkpoint: bad snapshot: %w", err)
	}
	if img.Version != Version {
		return nil, fmt.Errorf("checkpoint: snapshot version %d, want %d", img.Version, Version)
	}
	if img.Provenance.Scenario == "" {
		return nil, fmt.Errorf("checkpoint: snapshot has no scenario recipe")
	}
	return &img, nil
}

// RestoreBuilt rebuilds the snapshotted world and proves the rebuild:
// the replayed world's digest and exported state must match the
// snapshot byte-for-byte. It returns the full scenario.Built, so callers
// can keep driving the world to its horizon and compute its end-of-run
// Result.
func RestoreBuilt(data []byte) (*scenario.Built, error) {
	return restore(data, nil)
}

// restore is RestoreBuilt with the rebuilt world narrating to out (nil
// discards the narration).
func restore(data []byte, out io.Writer) (*scenario.Built, error) {
	img, err := Decode(data)
	if err != nil {
		return nil, err
	}
	b, err := replay(img.Provenance, img.Now, out)
	if err != nil {
		return nil, err
	}
	if err := verify(img, b.World); err != nil {
		return nil, err
	}
	return b, nil
}

// ForkBuilt restores the snapshot into a new world and restarts its
// random stream with seed at the snapshot instant, recording the fork in
// the world's provenance (so the fork itself is snapshottable). Forks
// with distinct seeds diverge from here on; forks with equal seeds
// remain bit-identical. The world narrates to out when one is given —
// the replayed history first, then whatever the fork goes on to say,
// as a run built from scratch would — and to io.Discard otherwise.
func ForkBuilt(data []byte, seed int64, out ...io.Writer) (*scenario.Built, error) {
	var w io.Writer
	if len(out) > 0 {
		w = out[0]
	}
	b, err := restore(data, w)
	if err != nil {
		return nil, err
	}
	b.World.Fork(seed)
	return b, nil
}

// replay rebuilds a world from its recipe and drives it to the target
// instant, re-applying the fork lineage at the recorded times. The
// world narrates to out. A panic inside scenario events (the scripts'
// must-style assertions) becomes an error.
func replay(prov aroma.Provenance, until sim.Time, out io.Writer) (b *scenario.Built, err error) {
	cfg := scenario.Config{
		Seed:    prov.Seed,
		Horizon: prov.Horizon,
		Verbose: prov.Verbose,
		Out:     out,
		Params:  prov.Params,
		// Faults are recipe, not strategy: a faulted world replays with
		// its plan re-armed, so mid-fault snapshots restore bit-identical.
		Faults: prov.Faults,
	}
	b, err = scenario.Build(prov.Scenario, cfg)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuild: %w", err)
	}
	// Restart lineage is outside the rebuild recipe (Build stamps it
	// zero); carry it forward so a resurrected world's snapshots remember
	// how many lives it has used.
	if prov.Restarts > 0 {
		if p, ok := b.World.Provenance(); ok {
			p.Restarts = prov.Restarts
			b.World.SetProvenance(p)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("checkpoint: replay of %s panicked: %v", prov.Scenario, r)
		}
	}()
	for _, f := range prov.Forks {
		if f.At > until {
			return nil, fmt.Errorf("checkpoint: fork at %v is beyond snapshot time %v", f.At, until)
		}
		b.World.RunUntil(f.At)
		b.World.Fork(f.Seed)
	}
	b.World.RunUntil(until)
	return b, nil
}

// verify proves the replay: digest and canonical state must equal the
// snapshot's byte-for-byte.
func verify(img *Image, w *aroma.World) error {
	if got := w.Digest(); got != img.Digest {
		return fmt.Errorf("checkpoint: restore diverged: digest %s, snapshot has %s — nondeterminism in %s",
			got, img.Digest, img.Provenance.Scenario)
	}
	want, err := json.Marshal(&img.State)
	if err != nil {
		return fmt.Errorf("checkpoint: re-encode snapshot state: %w", err)
	}
	got, err := w.MarshalState()
	if err != nil {
		return fmt.Errorf("checkpoint: export replayed state: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("checkpoint: restore diverged at %s: replayed state differs from snapshot (first diff at byte %d of %d/%d) — nondeterminism in %s",
			img.Now, firstDiff(got, want), len(got), len(want), img.Provenance.Scenario)
	}
	return nil
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
