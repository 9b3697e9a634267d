// Package sweep is Aroma's parallel experiment engine: it executes a
// declarative Design — a scenario, a parameter grid of named axes, and
// a seed set — as the full cross-product of (grid cell × replication)
// on a worker pool sized to the machine, and folds every run into one
// Report of per-cell statistics, per-run rows, and reproducibility
// digests.
//
// # The MRIP model
//
// The engine implements Multiple Replications In Parallel, the classic
// way to parallelize discrete-event simulation when a single run's
// event loop is inherently sequential: instead of parallelizing inside
// a run, run many independent replications at once and aggregate. Each
// run owns a fully isolated World — its own kernel, medium, trace, and
// RNG stream — and shares nothing with its siblings, so an N-core sweep
// is embarrassingly parallel. What makes this *safe* (and not just
// fast) is the per-run determinism contract established by the radio
// medium's ordering guarantees: a (scenario, params, seed) triple
// always produces the same World.Digest, whether it runs alone, first,
// last, or interleaved with 31 siblings. The engine leans on that
// contract twice over:
//
//   - Correctness auditing. Every run's digest is recorded in its Row,
//     beside the cell label and seed that identify the run. Rerunning a
//     sweep — at any worker count — must reproduce the same digest for
//     every (cell, seed) pair; the engine's tests pin workers=1 and
//     workers=NumCPU to byte-identical digests.
//
//   - Honest statistics. Replications within a cell differ only by
//     seed, so per-cell mean and CI95 over the recorded metrics are
//     proper independent-replication statistics, streamed into
//     metrics.Summary in a fixed task order regardless of completion
//     order (so even the float rounding is worker-count-independent).
//
// Output from concurrent runs never interleaves: each run writes its
// narrative to a private buffer (scenario.Config.Out), carried on its
// Row, and surfaced serially through the progress callback.
//
// # Using it
//
//	design := sweep.Design{
//	    Scenario: "mobiledense",
//	    Axes:     []sweep.Axis{sweep.Ints("radios", 100, 200, 400)},
//	    Reps:     32,
//	    BaseSeed: 1,
//	}
//	s, err := sweep.New(design, sweep.WithWorkers(0)) // 0 = all cores
//	rep, err := s.Run(ctx)
//	fmt.Print(rep.Table().Render())
//	err = rep.WriteArtifacts("out/")                  // runs.jsonl, cells.csv, report.txt
//
// cmd/aromasweep exposes the same engine on the command line.
package sweep
