package scenarios

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"aroma/internal/telemetry"
	"aroma/pkg/aroma/scenario"
)

// goldenExports pins the telemetry exports of every world scenario run
// to its horizon with metrics on, at seeds 1 and 7: the Prometheus text
// with a world="w1" label, the same text with no common labels, and the
// Snapshot JSON (final values plus every sampled series). Each entry is
// the first 8 bytes of the output's SHA-256. The table proves that
// changes to how telemetry stores series or renders the exposition
// leave every byte the daemon and the sweep artifacts serve unchanged.
var goldenExports = map[string]map[int64][3]string{
	"densitysweep": {
		1: {"fb0553ac119a17b8", "42a0b1ff9a4f2d61", "09f053163e514d64"},
		7: {"f38b72caae58d29a", "4b1f6bd5a4b5b2a1", "17f5a7eb5ecb2089"},
	},
	"faultstorm": {
		1: {"73486e42c5c96a66", "5151da84e1663544", "e6630d00d3a2a8e5"},
		7: {"0c0d0a1abcbe1c18", "f1ab4a134888f09b", "83c1db2782239660"},
	},
	"lab": {
		1: {"416bdce30203b533", "076e27f6076c63f0", "0455b39186bf6f70"},
		7: {"75b5bd2fe2a8171d", "7605cc36229ba35a", "2f488923c31ba977"},
	},
	"mobiledense": {
		1: {"eb7eb4b66e7dddbb", "7072b127c1fda1e2", "9b2570e71b5a4fad"},
		7: {"6966007117206738", "f474f03f23732965", "e37dc9bf1cbbe3c6"},
	},
	"noisyoffice": {
		1: {"efab52115ea452a5", "2b3f9355884265fd", "b151deb1fd10d5fe"},
		7: {"efab52115ea452a5", "2b3f9355884265fd", "b151deb1fd10d5fe"},
	},
	"quickstart": {
		1: {"60e21d9742ec51be", "7dc7cba4e7c3bab8", "58ab30cde65ee9bd"},
		7: {"60e21d9742ec51be", "7dc7cba4e7c3bab8", "58ab30cde65ee9bd"},
	},
	"smartprojector": {
		1: {"c6f3d53ce8bf6de3", "c620330617157e23", "15cb476724ac41f5"},
		7: {"6349fa2ab3674d4f", "f79296ef568ab37d", "38f7e646d1e7e881"},
	},
	"smartspace": {
		1: {"5bed871957bd2f94", "8e9debe4bb25f374", "a89563d16921b05f"},
		7: {"b957c6637da6487a", "611b814e710cabc7", "eb9d87935baf05ed"},
	},
	"walkabout": {
		1: {"300908e380370026", "c03fd03eff7730b7", "b44ddfcd2b17b1c1"},
		7: {"952c6107ee4702ab", "a17c05022fc16b73", "eb26932ba791460b"},
	},
}

func TestGoldenTelemetryExports(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden exports are amd64 values: other architectures may fuse floating-point operations differently")
	}
	names := scenario.Names()
	if len(names) != len(goldenExports) {
		t.Errorf("golden table covers %d scenarios, registry has %d: %v", len(goldenExports), len(names), names)
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				b, err := scenario.Build(name, scenario.Config{Seed: seed, Metrics: true})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b.World.RunUntil(b.Horizon)
				reg := b.World.Telemetry()
				world := reg.AppendPrometheus(nil, telemetry.L("world", "w1"))
				bare := reg.AppendPrometheus(nil)
				js, err := json.Marshal(reg.Snapshot(int64(b.World.Now())))
				if err != nil {
					t.Fatal(err)
				}
				got := [3]string{hash(world), hash(bare), hash(js)}
				if want := goldenExports[name][seed]; got != want {
					t.Errorf("seed %d: golden exports %q, got %q", seed, want, got)
				}
			}
		})
	}
}
