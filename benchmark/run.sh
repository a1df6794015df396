#!/usr/bin/env bash
# Builds the benchmark from the repository's source into the checkout's own
# .bench_build/ (binary, Go build cache, Go's per-user config) and runs it, so
# nothing is read or written outside the checkout. Arguments go to the
# benchmark unchanged; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
    echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark measures the repository it sits in" >&2
    exit 2
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local
go build -o .bench_build/gendpr-bench ./benchmark
exec .bench_build/gendpr-bench "$@"
