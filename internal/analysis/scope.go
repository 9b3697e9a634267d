package analysis

import "strings"

// The simulator's package taxonomy, shared by every analyzer's default
// configuration. Paths are import paths within this module.
var (
	// DeterministicPackages are the packages whose execution order is
	// part of the reproducibility contract: everything the kernel,
	// medium, and protocol layers do must be identical run to run for
	// World.Digest() to be bit-stable. Map iteration, goroutines, wall
	// clocks, and ambient randomness are all forbidden here.
	DeterministicPackages = []string{
		"aroma/internal/sim",
		"aroma/internal/radio",
		"aroma/internal/env",
		"aroma/internal/mac",
		"aroma/internal/netsim",
		"aroma/internal/discovery",
		"aroma/internal/lease",
		"aroma/internal/session",
		"aroma/internal/fault",
		"aroma/pkg/aroma",
	}

	// RealtimeAllowed are the layers that legitimately touch host time
	// and host concurrency: the daemon serves HTTP, the sweep engine
	// measures wall time and runs a worker pool, profiling samples the
	// host, the telemetry package's host plane accumulates wall-clock
	// durations (its sim plane never reads a clock — samplers take
	// their timestamps from the kernel), and CLIs talk to terminals.
	// Everything else in the module is sim code and must take time from
	// the kernel and randomness from the seeded world RNG.
	RealtimeAllowed = []string{
		"aroma/internal/daemon",
		"aroma/internal/profiling",
		"aroma/internal/telemetry",
		"aroma/pkg/aroma/sweep",
		"aroma/pkg/aroma/client",
		"aroma/cmd/...",
	}

	// GuardedStateTypes define "sim state" for the goroutine guard: the
	// stateful spines of a running world. A goroutine capturing one of
	// these (directly, behind a pointer/container, or inside a struct
	// that transitively holds one) shares unsynchronized simulator
	// state across threads, which breaks the single-threaded kernel
	// invariant. Value snapshots from the same packages (sim.Time,
	// trace.Event, mac.Addr, exported State structs) are deliberately
	// absent: sharing an immutable copy is fine. scenario.Built is
	// included because it carries the whole World.
	GuardedStateTypes = []string{
		"aroma/internal/sim.Kernel",
		"aroma/internal/radio.Medium",
		"aroma/internal/radio.Radio",
		"aroma/internal/env.Environment",
		"aroma/internal/mac.MAC",
		"aroma/internal/netsim.Network",
		"aroma/internal/discovery.Lookup",
		"aroma/internal/discovery.Agent",
		"aroma/internal/lease.Table",
		"aroma/internal/session.Manager",
		"aroma/internal/trace.Log",
		"aroma/internal/fault.Injector",
		"aroma/pkg/aroma.World",
		"aroma/pkg/aroma/scenario.Built",
	}

	// GoroutineAllowedFuncs are the audited goroutine owners: the
	// daemon host's command loop (the world's single thread under a
	// concurrent HTTP surface), the daemon's /metrics scraper (renders
	// each world's registry concurrently, touching every world only
	// through its command loop), and the sweep engine's worker pool
	// (each worker owns run-isolated worlds that share nothing).
	// Entries are "<import path>.<func>" with methods written as
	// "<import path>.(*T).m".
	GoroutineAllowedFuncs = []string{
		"aroma/internal/daemon.newHost",
		"aroma/internal/daemon.(*Server).scrapeWorlds",
		"aroma/pkg/aroma/sweep.(*Sweep).Run",
	}
)

// MatchPath reports whether pkgPath matches pattern: either exactly,
// or, for patterns ending in "/...", by prefix (the "..." matches any
// suffix including none, as in go command patterns).
func MatchPath(pkgPath, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
	}
	return pkgPath == pattern
}

// MatchAny reports whether pkgPath matches any of the patterns.
func MatchAny(pkgPath string, patterns []string) bool {
	for _, pat := range patterns {
		if MatchPath(pkgPath, pat) {
			return true
		}
	}
	return false
}
