#!/usr/bin/env bash
# Build aromalint and run the full analyzer suite over the module as a
# `go vet` tool. Any diagnostic fails the build: every rule violation
# must be fixed or carry a justified //aroma:<rule> directive. The exit
# status is go vet's.
#
# Usage: scripts/lint.sh [packages...]   (defaults to ./...)
#
# AROMALINT_BIN overrides where the tool binary is written (useful for
# keeping it on a cached path); without it the binary goes to a
# temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n ${AROMALINT_BIN:-} ]]; then
	bin=$AROMALINT_BIN
else
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	bin=$tmp/aromalint
fi
go build -o "$bin" ./cmd/aromalint
go vet -vettool="$bin" "${@:-./...}"
