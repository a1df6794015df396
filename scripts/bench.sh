#!/usr/bin/env bash
# Run the Phase-3 benchmark suite at a fixed small scale and record the
# results as one labelled entry in BENCH_phase3.json (see internal/bench).
#
# Usage: scripts/bench.sh <label> [note]
#
# The label names the kernel under test (e.g. "seed-dense",
# "pr2-bitpacked"); re-running with the same label replaces that entry.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:?usage: scripts/bench.sh <label> [note]}"
note="${2:-}"

# Fixed small scale so entries in the trajectory stay comparable across
# machines and PRs. Override deliberately via GENDPR_BENCH_SCALE.
scale="${GENDPR_BENCH_SCALE:-0.05}"
benchtime="${GENDPR_BENCH_TIME:-1x}"

benches='^(BenchmarkTable4Selection|BenchmarkTable5Collusion|BenchmarkAblationObliviousLRTest|BenchmarkAblationLRWireFormat)$'

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

GENDPR_BENCH_SCALE="$scale" go test -run '^$' -bench "$benches" \
    -benchtime "$benchtime" -benchmem . | tee "$out"

go run ./cmd/benchjson -label "$label" -note "$note" \
    -scale "$scale" -benchtime "$benchtime" -out BENCH_phase3.json <"$out"
