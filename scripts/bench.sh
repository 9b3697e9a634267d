#!/usr/bin/env bash
# bench.sh — record the repo's performance trajectory.
#
# Runs the hot-path benchmarks (kernel event queue, dense/mobile radio
# medium and carrier sense, grid cover churn, world-level dense PHY
# fan-out, RFB tile streaming) at a statistically useful count, plus
# every root figure/claim benchmark once, and folds the output into a
# JSON record via cmd/benchgate. The checked-in BENCH_PR8.json was
# produced by this script; CI re-runs the gated subset and compares
# against it (see .github/workflows/ci.yml "Benchmark regression gate").
#
# Usage:
#   scripts/bench.sh [out.json]
#
# Environment:
#   COUNT      repetitions for the gated benchmarks (default 3; the
#              per-metric minimum is recorded, benchstat-style)
#   BENCHTIME  benchtime for the gated benchmarks (default 0.5s)
#   SKIP_ROOT  set to 1 to skip the slow root figure/claim benchmarks
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_PR8.json}
count=${COUNT:-3}
benchtime=${BENCHTIME:-0.5s}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== kernel event queue (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkKernel' -benchmem \
    -count "$count" -benchtime "$benchtime" ./internal/sim/ | tee -a "$tmp"

echo "== radio medium, dense + mobile + carrier sense (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkMedium(Busy)?Dense' -benchmem \
    -count "$count" -benchtime "$benchtime" ./internal/radio/ | tee -a "$tmp"

echo "== grid cover churn, dense (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkGridCoverDense' -benchmem \
    -count "$count" -benchtime "$benchtime" ./internal/geo/ | tee -a "$tmp"

echo "== checkpoint snapshot/restore, dense-500 (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkCheckpoint' -benchmem \
    -count "$count" -benchtime "$benchtime" ./pkg/aroma/checkpoint/ | tee -a "$tmp"

echo "== world fan-out, dense-500/1000 (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkWorldDense' -benchmem \
    -count "$count" -benchtime "$benchtime" ./pkg/aroma/ | tee -a "$tmp"

echo "== telemetry hot path (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkTelemetry' -benchmem \
    -count "$count" -benchtime "$benchtime" ./internal/telemetry/ | tee -a "$tmp"

echo "== rfb streaming: encode, apply, fill, animate (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench '.' -benchmem \
    -count "$count" -benchtime "$benchtime" ./internal/rfb/ | tee -a "$tmp"

if [[ "${SKIP_ROOT:-0}" != 1 ]]; then
    echo "== root figure/claim benchmarks (one shot each)"
    go test -run '^$' -bench '.' -benchmem -benchtime 1x . | tee -a "$tmp"
fi

go run ./cmd/benchgate -emit "$out" -in "$tmp" \
    -note "recorded by scripts/bench.sh; gated subset: BenchmarkKernel*, BenchmarkMediumDense*, BenchmarkMediumBusyDense*, BenchmarkGridCoverDense, BenchmarkCheckpoint*, BenchmarkWorldDense*, BenchmarkTelemetry*, internal/rfb (all)"
