#!/usr/bin/env bash
# One command for the repo's yardstick: builds the benchmark once into
# .bench_build/ at the root of the checkout (binary and Go build cache both
# stay inside the checkout) and runs it with the given flags.
#
#   benchmark/run.sh [-seed S] [-workload NAME] [-out DIR]      every run, tables, result.json
#   benchmark/run.sh -workload NAME -seed S -seconds T -trace 0|1   one run in this process
#   benchmark/run.sh -compare a1.json[,a2.json...] b1.json[,b2.json...]
#
# See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/ecbench" ./benchmark
exec "$build/ecbench" "$@"
