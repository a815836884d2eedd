#!/usr/bin/env bash
# Run the repository benchmark suite and record machine-readable results so
# successive PRs accumulate a performance trajectory.
#
# Usage:
#   scripts/bench.sh [OUT.json] [BENCH_REGEX]
#
# Defaults: OUT.json = BENCH.json, BENCH_REGEX = "." (everything). Each
# benchmark is run with -benchmem -count=3; the recorded numbers are the
# per-metric minima over the three runs (least-noise estimate). A benchmark
# that reports first-byte-ns/op (the streaming ones) also records
# first_byte_ns.
#
# The sweep covers every package (./...), so internal/... benchmarks join
# the recorded trajectory alongside the root artifact suite. Benchmark
# names are recorded without their package path; keep top-level Benchmark
# function names unique across packages.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
pattern="${2:-.}"
count=3

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -count="$count" ./... | tee "$raw" >&2

awk -v out="$out" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    fb = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i - 1)
        if ($(i) == "B/op")      bop = $(i - 1)
        if ($(i) == "allocs/op") aop = $(i - 1)
        if ($(i) == "first-byte-ns/op") fb = $(i - 1)
    }
    if (!(name in min_ns) || ns + 0 < min_ns[name] + 0) min_ns[name] = ns
    if (!(name in min_b) || bop + 0 < min_b[name] + 0)  min_b[name] = bop
    if (!(name in min_a) || aop + 0 < min_a[name] + 0)  min_a[name] = aop
    if (fb != "" && (!(name in min_fb) || fb + 0 < min_fb[name] + 0)) min_fb[name] = fb
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"benchmarks\": [\n" > out
    for (i = 1; i <= n; i++) {
        name = order[i]
        extra = (name in min_fb) ? sprintf(", \"first_byte_ns\": %s", min_fb[name]) : ""
        printf "    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s%s}%s\n", \
            name, min_ns[name], min_b[name], min_a[name], extra, (i < n ? "," : "") >> out
    }
    printf "  ]\n}\n" >> out
}' "$raw"

echo "wrote $out" >&2
