#!/usr/bin/env bash
# hotalign.sh — print where the app-stack workload's hot rfb kernels
# sit in a binary: each function's address and that address mod 64, its
# offset inside a 64-byte cache line. drawTextured.func1 is the
# per-tile loop of the textured draw, a closure with a symbol of its own.
#
# A change that only moves code can shift these loops to another
# offset, and app-stack's time has moved by about 10% on such a shift
# alone. Compare the offsets of the two binaries before crediting or
# blaming code for an app-stack time change.
#
# Usage:
#   scripts/hotalign.sh BIN
#
# BIN is any binary that links internal/rfb, for example the one
# bench/run.sh builds at .bench_build/aromabench. A function the
# compiler inlined into its callers has no symbol of its own and is
# reported as inlined.
set -euo pipefail

bin=${1:?usage: scripts/hotalign.sh BIN}
syms=$(go tool nm "$bin")
for fn in Fill putTile DecodeTile appendRLE valueChanges drawTextured drawTextured.func1; do
    line=$(awk -v fn="$fn" '$2 == "T" && $3 ~ ("^aroma/internal/rfb\\.(\\([^)]*\\)\\.)?" fn "$") { print $1, $3; exit }' <<<"$syms")
    if [[ -z $line ]]; then
        printf '%-18s inlined (no symbol)\n' "$fn"
        continue
    fi
    addr=${line%% *}
    printf '%-18s 0x%s mod 64 = %2d  %s\n' "$fn" "$addr" $((16#$addr % 64)) "${line#* }"
done
