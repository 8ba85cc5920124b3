#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it with the arguments given. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload node-city --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -aa            # the whole suite, twice
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/go-cache GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/alphawan-benchmark" .)
exec "$out/alphawan-benchmark" "$@"
