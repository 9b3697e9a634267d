package scenarios

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

// digestOf runs one registered scenario headlessly and returns the
// reproducibility fingerprint the suite compares: the trace digest plus
// the coarse run shape (event count, virtual time, report summary).
func digestOf(t *testing.T, name string, seed int64) string {
	t.Helper()
	res, err := scenario.Run(name, scenario.Config{Seed: seed})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	if res.Digest == "" {
		t.Fatalf("scenario %s did not set Result.Digest", name)
	}
	rep := ""
	if res.Report != nil {
		rep = res.Report.Render()
	}
	return fmt.Sprintf("digest=%s steps=%d simtime=%d findings=%d\n%s",
		res.Digest, res.Steps, res.SimTime, res.Findings(), rep)
}

// TestEveryScenarioIsSeedReproducible is the determinism regression
// suite: every registered scenario, run twice with the same seed, must
// produce bit-identical trace digests, event counts, and reports. This
// fails on any model code that iterates a Go map while delivering
// simultaneous events (the pre-indexed radio.Medium did exactly that).
func TestEveryScenarioIsSeedReproducible(t *testing.T) {
	seeds := []int64{7, 42}
	for _, s := range scenario.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, seed := range seeds {
				a := digestOf(t, s.Name, seed)
				b := digestOf(t, s.Name, seed)
				if a != b {
					t.Errorf("seed %d not reproducible:\nrun1: %s\nrun2: %s", seed, a, b)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbDigests is the telemetry half of the
// determinism contract: every registered scenario, run with and
// without the instrument registry and its sim-time sampler, must
// produce bit-identical digests and step counts. Telemetry is a pure
// observer — samplers live outside the event queue and instruments
// read counters the model already keeps — so any divergence here means
// an instrument leaked into scheduling, RNG, or trace state.
func TestTelemetryDoesNotPerturbDigests(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{7, 42} {
				plain, err := scenario.Run(name, scenario.Config{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d plain: %v", seed, err)
				}
				instrumented, err := scenario.Run(name, scenario.Config{Seed: seed, Metrics: true})
				if err != nil {
					t.Fatalf("seed %d instrumented: %v", seed, err)
				}
				if instrumented.Telemetry == nil {
					t.Fatalf("seed %d: Metrics=true produced no telemetry snapshot", seed)
				}
				if plain.Digest != instrumented.Digest {
					t.Errorf("seed %d: plain digest %s != instrumented digest %s",
						seed, plain.Digest, instrumented.Digest)
				}
				if plain.Steps != instrumented.Steps {
					t.Errorf("seed %d: step counts diverge: plain=%d instrumented=%d",
						seed, plain.Steps, instrumented.Steps)
				}
			}
		})
	}
}

// TestMobileDenseIndexedMatchesFullScan cross-checks the whole indexed
// medium — grid covers, cell-granular revalidation, channel-window
// filtering, use-time range checks, receipt ordering — against the
// exact medium (cutoff disabled: every radio on an overlapping channel
// hears every frame) on the mobile-dense workload, requiring
// bit-identical digests.
//
// The cutoff here is lowered until the conservative hearing range
// covers the whole arena, so the index prunes nothing and equality is
// exact by construction. With a pruning cutoff, exact equality is
// unattainable in principle: WithRxCutoffDBm documents a bounded
// per-contribution error, and a skipped just-out-of-range interferer
// shifts SINR by up to 3 dB while SNR-adaptive rate selection leaves
// decode margins inside [0, 3) dB — the pruning configuration is
// instead checked against the brute-force hearer oracle in
// internal/radio, after every slice of a mobile-dense run.
func TestMobileDenseIndexedMatchesFullScan(t *testing.T) {
	// 0 dBm transmitters at a -130 dBm cutoff hear out to 1 km —
	// beyond the 707 m arena diagonal.
	for _, seed := range []int64{7, 42} {
		cfg := scenario.Config{Seed: seed}
		indexed, err := mobileDense(cfg, aroma.WithRadioCutoff(-130))
		if err != nil {
			t.Fatalf("seed %d indexed: %v", seed, err)
		}
		// -Inf is the medium's "cutoff disabled" value.
		exact, err := mobileDense(cfg, aroma.WithRadioCutoff(math.Inf(-1)))
		if err != nil {
			t.Fatalf("seed %d exact: %v", seed, err)
		}
		if indexed.Digest != exact.Digest {
			t.Errorf("seed %d: indexed digest %s != exact digest %s",
				seed, indexed.Digest, exact.Digest)
		}
		if indexed.Steps != exact.Steps {
			t.Errorf("seed %d: step counts diverge: indexed=%d exact=%d",
				seed, indexed.Steps, exact.Steps)
		}
	}
}

// goldenDigests pins the digestOf fingerprint of every registered world
// scenario at seeds 1 and 7, hashed to 16 hex digits (the first 8 bytes
// of its SHA-256). The table is the bit-identical proof for refactors
// that must not change behaviour: a change to event order, RNG draws,
// physics or reports moves at least one entry. Regenerate it only for a
// deliberate model change, from the "got" values the test prints.
var goldenDigests = map[string]map[int64]string{
	"densitysweep":   {1: "44a7a6525fa1c6d2", 7: "eb9131618edf6861"},
	"faultstorm":     {1: "0d22cca69117bf8d", 7: "49d75140482e8ebe"},
	"lab":            {1: "8db25771a6a05a1f", 7: "271f4b7e85b83054"},
	"mobiledense":    {1: "fa92d0bcfe48d094", 7: "98d2c11944a927e7"},
	"noisyoffice":    {1: "a1181cfbd82c4288", 7: "595561ed4ef0c69d"},
	"quickstart":     {1: "914eac0982e18162", 7: "90ec9f4527228633"},
	"smartprojector": {1: "43f0491db11b2ca5", 7: "69224ea210cf572a"},
	"smartspace":     {1: "c6a8b5eee2768866", 7: "55cf671217b7952a"},
	"walkabout":      {1: "f2fcccb4cb7cb642", 7: "814f751522ef802e"},
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are amd64 values: other architectures may fuse floating-point operations differently")
	}
	names := scenario.Names()
	if len(names) != len(goldenDigests) {
		t.Errorf("golden table covers %d scenarios, registry has %d: %v", len(goldenDigests), len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				sum := sha256.Sum256([]byte(digestOf(t, name, seed)))
				got := hex.EncodeToString(sum[:8])
				if want := goldenDigests[name][seed]; got != want {
					t.Errorf("seed %d: golden digest %q, got %q", seed, want, got)
				}
			}
		})
	}
}
