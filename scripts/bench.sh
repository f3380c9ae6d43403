#!/usr/bin/env bash
# Record a benchmark snapshot as BENCH_<date>.json at the repo root,
# seeding the performance trajectory across PRs. Each snapshot captures
# `go test -bench . -benchmem` in machine-readable form:
#
#   scripts/bench.sh                 # full suite (minutes)
#   scripts/bench.sh FabricForwarding|TrainingIteration
#
# The JSON is a small stable schema: {date, go, cpu, benchmarks:
# [{name, ns_per_op, bytes_per_op, allocs_per_op, extra}]}. Compare two
# snapshots with jq or feed them to benchstat-style tooling.
set -euo pipefail

cd "$(dirname "$0")/.."

pattern="${1:-.}"
date="$(date -u +%Y-%m-%d)"
out="BENCH_${date}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "${BENCHTIME:-1s}" . ./internal/sim ./internal/fabric ./internal/trace ./internal/resilience ./internal/control ./internal/serve | tee "$raw"

awk -v date="$date" '
  /^goos:/ { goos = $2 }
  /^cpu:/  { sub(/^cpu: /, ""); cpu = $0 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
      if ($(i) == "ns/op")     ns = $(i-1)
      if ($(i) == "B/op")      bytes = $(i-1)
      if ($(i) == "allocs/op") allocs = $(i-1)
      if ($(i) ~ /\/op$/ && $(i) != "ns/op" && $(i) != "B/op" && $(i) != "allocs/op")
        extra = $(i-1) " " $(i)
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"extra\": \"%s\"}", \
      name, (ns == "" ? "null" : ns), (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs), extra
  }
  END { printf "\n" }
' "$raw" > "${raw}.rows"

{
  printf '{\n  "date": "%s",\n  "go": "%s",\n  "cpu": "%s",\n  "benchmarks": [\n' \
    "$date" "$(go version | awk "{print \$3}")" "$(grep '^cpu:' "$raw" | head -1 | sed 's/^cpu: //')"
  cat "${raw}.rows"
  printf '  ]\n}\n'
} > "$out"
rm -f "${raw}.rows"

echo "wrote $out"
