#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload phy-dense --seed 1 --seconds 32 --trace 0
#
# Every file the build writes (compiler cache, temporaries, the binary)
# stays under .bench_build/ at the repository root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/aromabench" .
cd "$root"
exec "$out/aromabench" "$@"
