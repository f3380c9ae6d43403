#!/usr/bin/env bash
# Build and run the FlowPulse benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload ring-detect --seed 1 --seconds 30 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that builds the
# repository's packages from source through a replace directive. Every
# build product, the Go build cache and the span files stay under
# .bench_build/ in the checkout. Compare two sets of saved outputs with
#
#   bash perfbench/compare.sh base.out head.out
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The Go toolchain keeps its cache, module path and telemetry counters
# under the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
