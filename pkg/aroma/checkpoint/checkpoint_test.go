package checkpoint_test

import (
	"fmt"
	"testing"

	"aroma/pkg/aroma"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios"
)

// The restore determinism contract, enforced for every registered
// scenario at its classic seed (0) and at seeds 7 and 42: run to half
// the horizon, snapshot, then (a) the snapshotted original and (b) the
// restored copy must both reach the uninterrupted run's final digest.
func TestSnapshotRoundTripAllScenarios(t *testing.T) {
	for _, name := range scenario.Names() {
		for _, seed := range []int64{0, 7, 42} {
			name, seed := name, seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := scenario.Config{Seed: seed}

				full, err := scenario.Build(name, cfg)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				full.World.RunUntil(full.Horizon)
				want := full.World.Digest()

				half, err := scenario.Build(name, cfg)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				half.World.RunUntil(half.Horizon / 2)
				data, err := checkpoint.Snapshot(half.World)
				if err != nil {
					t.Fatalf("snapshot at t/2: %v", err)
				}

				// The snapshot must be a pure observation: the original
				// continues to the uninterrupted digest.
				half.World.RunUntil(half.Horizon)
				if got := half.World.Digest(); got != want {
					t.Errorf("snapshotted original diverged: %s, want %s", got, want)
				}

				// The restored copy picks up at t/2 and reaches the same
				// final digest bit-for-bit.
				restored, err := checkpoint.RestoreBuilt(data)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if restored.World.Now() != half.Horizon/2 {
					t.Errorf("restored world at %v, want %v", restored.World.Now(), half.Horizon/2)
				}
				restored.World.RunUntil(restored.Horizon)
				if got := restored.World.Digest(); got != want {
					t.Errorf("restored run diverged: %s, want %s", got, want)
				}
			})
		}
	}
}

// Forks with different seeds diverge; forks with the same seed are
// bit-identical; and a forked world is itself snapshottable (the fork
// lineage replays).
func TestForkDivergenceAndLineage(t *testing.T) {
	base, err := scenario.Build("lab", scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base.World.RunUntil(base.Horizon / 2)
	data, err := checkpoint.Snapshot(base.World)
	if err != nil {
		t.Fatal(err)
	}

	runFork := func(seed int64) string {
		t.Helper()
		b, err := checkpoint.ForkBuilt(data, seed)
		if err != nil {
			t.Fatalf("fork seed=%d: %v", seed, err)
		}
		b.World.RunUntil(b.Horizon)
		return b.World.Digest()
	}
	d101a, d101b, d202 := runFork(101), runFork(101), runFork(202)
	if d101a != d101b {
		t.Errorf("same-seed forks diverged: %s vs %s", d101a, d101b)
	}
	if d101a == d202 {
		t.Errorf("different-seed forks did not diverge (both %s)", d101a)
	}

	// The unforked continuation is a third trajectory.
	base.World.RunUntil(base.Horizon)
	if got := base.World.Digest(); got == d101a || got == d202 {
		t.Errorf("fork failed to diverge from the unforked run (%s)", got)
	}

	// Snapshot a fork mid-run; restoring it replays the lineage.
	fork, err := checkpoint.ForkBuilt(data, 101)
	if err != nil {
		t.Fatal(err)
	}
	fork.World.RunUntil(3 * fork.Horizon / 4)
	forkData, err := checkpoint.Snapshot(fork.World)
	if err != nil {
		t.Fatalf("snapshot of fork: %v", err)
	}
	refork, err := checkpoint.RestoreBuilt(forkData)
	if err != nil {
		t.Fatalf("restore of forked snapshot: %v", err)
	}
	refork.World.RunUntil(refork.Horizon)
	if got := refork.World.Digest(); got != d101a {
		t.Errorf("restored fork diverged: %s, want %s", got, d101a)
	}
}

// A snapshot taken inside an open fault window — partition up, fault
// counters non-zero, recovery events still pending in the kernel queue
// — restores byte-identically: the replay re-arms the plan from the
// provenance and reproduces the half-injected storm exactly.
func TestMidFaultSnapshotRestore(t *testing.T) {
	cfg := scenario.Config{Seed: 7}
	b, err := scenario.Build("faultstorm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov, ok := b.World.Provenance()
	if !ok || prov.Faults == "" {
		t.Fatalf("faultstorm provenance carries no fault plan: %+v", prov)
	}

	// 55 s is inside the partition window (50–65 s) and past the jam,
	// radio, and first crash windows, so the snapshot instant has both
	// live fault state and non-zero injection counters.
	b.World.RunUntil(55 * aroma.Second)
	st := b.World.ExportState()
	if st.Faults == nil {
		t.Fatal("mid-storm export has no fault state")
	}
	if st.Faults.Partitions == 0 || st.Medium.Partitions == 0 {
		t.Errorf("snapshot instant not mid-partition: injector=%d medium=%d",
			st.Faults.Partitions, st.Medium.Partitions)
	}
	if st.Faults.Crashes == 0 || st.Faults.Jams == 0 {
		t.Errorf("expected crashes and jams injected by 55s: %+v", *st.Faults)
	}

	data, err := checkpoint.Snapshot(b.World)
	if err != nil {
		t.Fatalf("mid-fault snapshot: %v", err)
	}
	// RestoreBuilt proves digest + byte-equal state internally; check the
	// byte-equality once more from the outside.
	restored, err := checkpoint.RestoreBuilt(data)
	if err != nil {
		t.Fatalf("mid-fault restore: %v", err)
	}
	wantJSON, err := b.World.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := restored.World.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("restored mid-fault state is not byte-equal to the original")
	}

	// Both trajectories ride out the rest of the storm to the same final
	// digest — pending recovery events and the remaining occurrences
	// replay identically.
	b.World.RunUntil(b.Horizon)
	restored.World.RunUntil(restored.Horizon)
	if got, want := restored.World.Digest(), b.World.Digest(); got != want {
		t.Errorf("post-restore storm diverged: %s, want %s", got, want)
	}
	final := restored.World.ExportState()
	if final.Faults == nil || final.Faults.Partitions == 0 {
		t.Error("restored world lost its fault injector state")
	}
	if final.Medium.Partitions != 0 {
		t.Errorf("partition window never closed: depth %d", final.Medium.Partitions)
	}
}

// A snapshot of a world with no provenance must fail cleanly, and
// corrupt data must not restore.
func TestSnapshotErrors(t *testing.T) {
	if _, err := checkpoint.RestoreBuilt([]byte("{")); err == nil {
		t.Error("restore of garbage succeeded")
	}
	if _, err := checkpoint.RestoreBuilt([]byte(`{"version":99}`)); err == nil {
		t.Error("restore of wrong version succeeded")
	}
	b, err := scenario.Build("quickstart", scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Snapshot(b.World)
	if err != nil {
		t.Fatalf("snapshot of un-run world: %v", err)
	}
	if _, err := checkpoint.RestoreBuilt(data); err != nil {
		t.Errorf("restore of un-run world: %v", err)
	}
}

// Decode exposes the recipe without paying for a replay.
func TestDecode(t *testing.T) {
	b, err := scenario.Build("densitysweep", scenario.Config{Seed: 7, Params: map[string]string{"radios": "20"}})
	if err != nil {
		t.Fatal(err)
	}
	b.World.RunUntil(b.Horizon / 4)
	data, err := checkpoint.Snapshot(b.World)
	if err != nil {
		t.Fatal(err)
	}
	img, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Provenance.Scenario != "densitysweep" || img.Provenance.Seed != 7 {
		t.Errorf("recipe = %+v", img.Provenance)
	}
	if img.Provenance.Params["radios"] != "20" {
		t.Errorf("params = %v", img.Provenance.Params)
	}
	if img.Now != b.Horizon/4 {
		t.Errorf("now = %v, want %v", img.Now, b.Horizon/4)
	}
	if img.Digest != b.World.Digest() {
		t.Errorf("digest mismatch")
	}
}

// TestRestoredTelemetryMatchesOriginal pins that telemetry observes the
// model, not its own history: a world restored from a half-horizon
// snapshot and instrumented only then reports every instrument at the
// value the instrumented original reports at that instant, for every
// registered scenario at seed 7.
func TestRestoredTelemetryMatchesOriginal(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			orig, err := scenario.Build(name, scenario.Config{Seed: 7, Metrics: true})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			orig.World.RunUntil(orig.Horizon / 2)
			data, err := checkpoint.Snapshot(orig.World)
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			restored, err := checkpoint.RestoreBuilt(data)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			got := restored.EnableTelemetry().Snapshot(int64(restored.World.Now()))
			want := orig.World.Telemetry().Snapshot(int64(orig.World.Now()))
			if len(got.Instruments) != len(want.Instruments) {
				t.Fatalf("restored world has %d instruments, the original %d", len(got.Instruments), len(want.Instruments))
			}
			for i, w := range want.Instruments {
				g := got.Instruments[i]
				if g.Name != w.Name || fmt.Sprint(g.Labels) != fmt.Sprint(w.Labels) {
					t.Fatalf("instrument %d: restored %s %v, original %s %v", i, g.Name, g.Labels, w.Name, w.Labels)
				}
				if g.Value != w.Value {
					t.Errorf("%s %v: restored %g, original %g", w.Name, w.Labels, g.Value, w.Value)
				}
			}
		})
	}
}
