// Package aroma is the batteries-included facade over the Aroma
// simulation substrates. It assembles the full five-layer stack —
// deterministic kernel, environment, radio medium, CSMA/CA MAC, packet
// network, discovery, and the LPC analyzer — behind one coherent API so
// that a complete pervasive-computing scenario is a few declarative
// lines instead of a hundred lines of hand wiring.
//
// A World is created with functional options and populated with fluent
// entity constructors that auto-wire radios, MAC stations, network
// nodes, and model entities:
//
//	w := aroma.NewWorld(aroma.WithSeed(42), aroma.WithArena(30, 20))
//	lookup := w.AddLookup("lookup", aroma.Pt(15, 18))
//	proj := w.AddDevice("projector", aroma.Pt(25, 10),
//		aroma.WithSpec(aroma.AdapterSpec()))
//	alice := w.AddUser("alice", aroma.Pt(5, 10),
//		aroma.WithFaculties(aroma.Researcher()),
//		aroma.Operating("projector"))
//	w.RunFor(5 * aroma.Minute)
//	report := w.Analyze()
//
// The unified lifecycle (RunFor, RunUntil, Step, Stop) drives the
// event-driven kernel; a typed event bus (Events, Subscribe) bridges the
// runtime trace to live subscribers in record order; Analyze folds the
// whole run into a classified core.Report.
//
// Scenario authors who want a named, reusable workload should register
// it with the sibling package pkg/aroma/scenario; the stock scenarios
// live in pkg/aroma/scenarios and run from the command line with
// "go run ./cmd/aromasim -scenario NAME" (-list names them all).
//
// # Determinism guarantees
//
// A World run is exactly reproducible from its seed: two runs of the
// same scenario code with the same WithSeed value produce bit-identical
// event sequences, trace records, statistics, and reports. Digest
// fingerprints a run so the property can be asserted cheaply; the
// determinism regression suite in pkg/aroma/scenarios runs every
// registered scenario twice per seed and compares digests.
//
// What the guarantee rests on, and what model code must uphold:
//
//   - All randomness comes from the kernel's seeded generator
//     (Kernel().Rand()). Model code must never use math/rand globals,
//     time.Now, or any other ambient entropy.
//   - Simultaneous events run in FIFO scheduling order, and substrate
//     callbacks fire in fixed orders: radio receipts in ascending radio-ID
//     order, discovery lookup results sorted by ServiceID, subscriber
//     events in ascending subscription-ID order.
//   - Model code must not iterate a Go map when the iteration emits
//     events, sends frames, or draws randomness — map order is
//     nondeterministic and silently breaks seed reproducibility. Iterate
//     a sorted key slice (or keep an ordered index) instead.
//   - Radios move through SetPos (Device.SetPos does this), never by
//     writing Radio.Pos directly, so the medium's spatial index stays
//     consistent.
//
// Not covered: runs with different seeds, different Go versions'
// floating-point library behaviour across architectures, and wall-clock
// properties (a run's real duration). Concurrency is not part of the
// model: a World and its kernel are single-threaded by design.
// Parallelism lives above the model: independent worlds run on their own
// goroutines (sweep workers, daemon world loops).
//
// # Mobile worlds
//
// Devices move through movers attached at construction time —
// WithRandomWaypoint(speed) for continuous random-waypoint wandering
// inside the floor-plan bounds, WithPath(path) to walk a geo.Path once,
// WithMobilityTick to change the 200 ms sampling interval — or started
// later from scenario code via Device.Wander and Device.MoveAlong.
// Every sampled position flows through Device.SetPos, which drives
// Radio.SetPos, so the model entity, the medium's spatial index, and
// the candidate caches stay consistent; mover randomness comes from the
// world's seeded kernel, so mobile runs remain bit-reproducible.
//
// The invalidation model makes mobility cheap at density. The
// WithRadioCutoff index is a grid of fixed 50 m cells; each radio's
// candidate cache covers the grid cells its hearing-range circle
// touches; a move that stays inside one cell invalidates nothing, and a
// cell-boundary crossing invalidates only the caches covering the
// source or destination cell (delivery applies the exact range check at
// use time, so results are identical to rebuilding on every move).
// A radio's channel, transmit power and attachment are fixed when it is
// created, so the only other invalidation is a radio joining (a device
// powering on), which the caches detect by the radio count. The tests
// hold the caches to a brute-force oracle that scans every radio, and
// match the indexed mobiledense digest against the exact medium's
// (WithRadioCutoff(math.Inf(-1)), the cutoff disabled).
//
// # Sim-as-a-service
//
// pkg/aroma/checkpoint serializes whole worlds. A snapshot holds the
// world's build recipe (Provenance: scenario, config, fork lineage)
// plus the canonical state export of every layer at the snapshot
// instant. Restore replays the recipe — rebuild, run to the snapshot
// time, re-apply any forks at their recorded instants — then proves
// the replay by comparing digest and exported state byte-for-byte
// against the snapshot. Pending kernel events hold Go closures, which
// no serializer can capture; replay makes the checkpoint exact without
// representing a closure on disk. Fork = restore + reseed: same-seed
// forks stay bit-identical, different seeds diverge from the snapshot
// instant on, and a forked world is itself snapshottable.
//
// sweep.Design.Snapshot turns a campaign into snapshot-forked
// replications: every run restores the checkpoint and forks it with
// its replication seed instead of rebuilding cold, so replications
// share their pre-snapshot history and isolate post-fork variance.
//
// cmd/aromad hosts many concurrent worlds behind a JSON HTTP API with
// live SSE trace streaming; each world runs behind its own command-loop
// goroutine, preserving the single-threaded kernel invariant while
// worlds step in parallel. pkg/aroma/client is the typed Go client,
// and snapshot bytes downloaded from the daemon restore in-process to
// the bit-identical world (and vice versa).
//
// # Fault injection & self-healing
//
// WithFaults(plan) (or World.ApplyFaults, scenario.Config.Faults,
// sweep.Design.Faults, the -faults CLI flags, and the daemon's
// create-world API) arms a deterministic fault plan on the world: a
// declarative schedule of device crashes, radio outages, channel
// jamming, arena partitions, and lookup-server outages, parsed from
// the internal/fault grammar
// ("kind:at=5s,for=10s[,every=25s,n=3][,loss=40][,target=name]",
// semicolon-separated; "none" is the empty plan, an explicit disarm).
//
// The fault determinism contract: injections are ordinary kernel
// events, scheduled inside the (at, seq) total order, and every random
// choice (which device crashes) comes from a dedicated fault RNG
// stream derived from the world seed — never from the kernel's own
// generator. Same seed + same plan therefore reproduces bit-identical
// digests; a fault-free run and a faulted run of the same seed differ
// only by the injected events. The injector's schedule position, RNG
// draw count, and active windows ride ExportState, and the canonical
// plan string is part of Provenance, so checkpoint/restore of a
// mid-fault world — jam active, partition up — replays byte-exactly
// and continues faulted. Injections write trace records and count on
// aroma_fault_* instruments. In a sweep, Design.Faults crosses the
// grid as a pseudo-axis with identical replication seeds across arms,
// so metric deltas at equal seeds are attributable to the plan alone.
//
// The supervisor is the daemon's self-healing half. Every hosted
// world's command loop is a panic boundary: a panic inside the world
// is recovered with its stack into a terminal failed state (commands
// refused, failure inspectable, siblings untouched). With a restart
// budget (aromad -supervise N, daemon.WithSupervisor), a failed world
// is automatically restored from its most recent snapshot under the
// same ID. Restart semantics: resurrection replays the snapshot's
// verified recipe, so the revived world is bit-identical to the
// snapshot instant; Provenance.Restarts records the lineage and is
// carried forward across resurrections. The budget bounds restarts
// per world — a deterministic crash loop fails terminally after N
// resurrections rather than thrashing forever, and a world that was
// never snapshotted stays failed, since only a verified checkpoint is
// a trustworthy resurrection point.
//
// # Observability
//
// World.EnableTelemetry (or scenario.Config.Metrics,
// sweep.Design.Telemetry, the -metrics CLI flags) attaches a per-world
// instrument registry (internal/telemetry) covering the whole stack:
// kernel scheduling, radio medium, MAC, network, discovery/lease, and
// the trace bus. A kernel sampler records every instrument at a fixed
// virtual period (100 ms by default), producing deterministic sim-time
// series; Telemetry().Snapshot exports final values plus series as
// JSON, and WritePrometheus renders the Prometheus text format that
// aromad serves at GET /metrics. For a built scenario,
// scenario.Built.EnableTelemetry is the one way to turn it on: it also
// reserves every series for the samples left before the horizon, so
// sampling allocates once per series (the daemon, scenario.Build with
// Metrics, and sweep forks all use it).
//
// Instruments live on two strictly separated planes. Sim-plane
// instruments (aroma_kernel_*, aroma_radio_*, aroma_mac_*, aroma_net_*,
// aroma_discovery_*, aroma_lease_*, aroma_trace_*) are updated on the
// kernel goroutine and read model counters the simulation already
// keeps; names are dot-separated with counters ending _total, and
// dimensions (trace severity, fault kind) are labels. Host-plane
// instruments (aroma_host_*) count host-side events — SSE drops, world
// failures and restarts — behind atomics, and are never
// sampled on sim time. Telemetry is a pure observer: it draws no
// randomness, schedules no events, writes no trace records, and is
// excluded from ExportState, Digest, and checkpoint provenance, so a
// run's digest is bit-identical with telemetry on or off (pinned by
// the determinism suite) and the hot path stays allocation-free
// (pinned by a gated benchmark).
//
// # Static analysis
//
// The contracts above are machine-checked. aromalint (cmd/aromalint,
// framework in internal/analysis) runs standalone or as a `go vet
// -vettool`, and CI fails on any diagnostic. One analyzer per
// invariant:
//
//   - maprange — no order-sensitive map iteration in the deterministic
//     packages, internal/fault included (seed reproducibility). Escape
//     hatch: //aroma:ordered <why>.
//   - wallclock — no time.Now/Sleep/... and no global math/rand in sim
//     code; time comes from the kernel clock, randomness from the
//     seeded world RNG. Escape hatch: //aroma:realtime <why>.
//   - stateexport — every field of a layer's state struct is written
//     by its ExportState, so checkpoints cannot silently export zero
//     values. Escape hatch: //aroma:noexport <why>.
//   - goroutineguard — no goroutine captures kernel/world/medium state
//     outside the audited spawn sites (daemon command loop, sweep
//     worker pool); deterministic packages admit no
//     other go statements, and the daemon supervisor's detached
//     resurrection hook is an annotated, audited exception. Escape
//     hatch: //aroma:goroutine <why>.
//   - eagerfmt — trace recording stays lazy: no fmt.Sprintf or runtime
//     concatenation handed to Record/Issue/Info/Violation. Escape
//     hatch: //aroma:eagerok <why>.
//   - aromadirective — every //aroma: directive must name a known rule
//     and carry a one-line justification; no escape hatch.
//
// An escape-hatch directive suppresses its rule on its own line
// (trailing form) or on the line below (standalone form); the reason
// is mandatory.
package aroma
