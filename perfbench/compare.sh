#!/usr/bin/env bash
# Compare two sets of saved perfbench outputs, run from the repository
# root:
#
#   for s in 1 2 3 4 5 6 7 8 9 10; do
#     bash perfbench/run.sh --workload ring-detect --seed $s --seconds 25 --trace 0
#   done > base.out
#   ... the same on the change > head.out
#   bash perfbench/compare.sh base.out head.out
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The Go toolchain keeps its cache, module path and telemetry counters
# under the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench-compare" ./compare
exec "$out/perfbench-compare" -bench "$root/BENCHMARK.json" "$@"
