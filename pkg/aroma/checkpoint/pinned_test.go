package checkpoint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
)

// pinnedSnapshots holds the first 8 bytes of the SHA-256 of every
// registered scenario's Snapshot at half its horizon, at seeds 1 and 7.
// The table proves that changes to the model's state exports or to the
// snapshot encoding leave every snapshot byte unchanged.
var pinnedSnapshots = map[string]map[int64]string{
	"densitysweep":   {1: "1f94b7cdb59e6b77", 7: "2b810d938cbcac41"},
	"faultstorm":     {1: "01be558c0f04ab08", 7: "3e27dd470b433697"},
	"lab":            {1: "13eea0e4acad2387", 7: "56852f29f35dc47d"},
	"mobiledense":    {1: "2068d28fc3985ef4", 7: "90858a03c380c490"},
	"noisyoffice":    {1: "ae28e2c814ec2dae", 7: "eabdafbbea2fa6a6"},
	"quickstart":     {1: "556d807fc8af97f1", 7: "df22e3456a112c9d"},
	"smartprojector": {1: "8769158132d4a48d", 7: "20ab5b2674f8c9ad"},
	"smartspace":     {1: "5796a6344b749d4d", 7: "f9c00edce49ddba8"},
	"walkabout":      {1: "5b8558eaa1571f8d", 7: "3c43897665c58507"},
}

func TestSnapshotBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned snapshots are amd64 values: other architectures may fuse floating-point operations differently")
	}
	names := scenario.Names()
	if len(names) != len(pinnedSnapshots) {
		t.Errorf("pinned table covers %d scenarios, registry has %d: %v", len(pinnedSnapshots), len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				b, err := scenario.Build(name, scenario.Config{Seed: seed})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				b.World.RunUntil(b.Horizon / 2)
				data, err := checkpoint.Snapshot(b.World)
				if err != nil {
					t.Fatalf("seed %d: snapshot: %v", seed, err)
				}
				sum := sha256.Sum256(data)
				if got, want := hex.EncodeToString(sum[:8]), pinnedSnapshots[name][seed]; got != want {
					t.Errorf("seed %d: pinned snapshot %q, got %q", seed, want, got)
				}
			}
		})
	}
}
