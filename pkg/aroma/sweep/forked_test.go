package sweep

import (
	"context"
	"encoding/json"
	"testing"

	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios"
)

// warmSnapshot builds densitysweep to half its horizon and checkpoints
// it — the shared warm start for the fork-source tests.
func warmSnapshot(t *testing.T) []byte {
	t.Helper()
	b, err := scenario.Build("densitysweep", scenario.Config{
		Seed: 7, Params: map[string]string{"radios": "30"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.World.RunUntil(b.Horizon / 2)
	data, err := checkpoint.Snapshot(b.World)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A snapshot-forked campaign runs every replication from the warm
// checkpoint: replications diverge (different fork seeds), the whole
// campaign is reproducible run-to-run, and the campaign label comes
// from the snapshot's recipe.
func TestSnapshotForkedReplications(t *testing.T) {
	data := warmSnapshot(t)
	design := Design{Snapshot: data, Reps: 4, BaseSeed: 100}

	run := func() *Report {
		t.Helper()
		s, err := New(design)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.design.Scenario; got != "densitysweep+fork" {
			t.Fatalf("campaign label %q", got)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := run()
	if len(rep.Rows) != 4 || rep.FailedCount() != 0 {
		t.Fatalf("rows=%d failed=%d", len(rep.Rows), rep.FailedCount())
	}
	digests := make(map[string]int64)
	for _, row := range rep.Rows {
		if row.Digest == "" {
			t.Fatalf("row seed=%d has no digest", row.Seed)
		}
		if row.Name != "densitysweep+fork" {
			t.Errorf("row seed=%d names scenario %q, want the campaign label", row.Seed, row.Name)
		}
		if prev, dup := digests[row.Digest]; dup {
			t.Errorf("seeds %d and %d produced the same digest %s — forks did not diverge",
				prev, row.Seed, row.Digest)
		}
		digests[row.Digest] = row.Seed
		if row.Metrics["sent"] <= 0 {
			t.Errorf("seed %d: no sent metric (%v)", row.Seed, row.Metrics)
		}
	}

	// Bit-identical reproducibility: the same campaign again yields the
	// same digest per row.
	rep2 := run()
	for i := range rep.Rows {
		if rep.Rows[i].Digest != rep2.Rows[i].Digest {
			t.Errorf("row %d digest changed across runs: %s vs %s",
				i, rep.Rows[i].Digest, rep2.Rows[i].Digest)
		}
	}
}

// The fork source rejects designs it cannot honor.
func TestSnapshotDesignValidation(t *testing.T) {
	data := warmSnapshot(t)
	// A well-formed image whose recipe names no registered scenario.
	img, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	img.Provenance.Scenario = "no-such-scenario"
	orphan, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Design
	}{
		{"with axes", Design{Snapshot: data, Axes: []Axis{Ints("radios", 1, 2)}}},
		{"garbage snapshot", Design{Snapshot: []byte("{")}},
		{"unregistered scenario", Design{Snapshot: orphan}},
	}
	for _, tc := range cases {
		if _, err := New(tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
