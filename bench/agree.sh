#!/usr/bin/env bash
# Measure the benchmark's noise and derive its bounds from it.
#
#   bench/agree.sh [-runs N] [-seed S]
#
# Runs BENCHMARK.json's own command in two sets of N (default 10) runs per
# workload, every run with another seed; writes each end-to-end metric's
# bound into BENCHMARK.json and the raw runs and quartiles into
# bench/NOISE.md; fails if the two sets disagree by more than the bounds.
# About 35 minutes at the defaults. See bench/cmd/agree.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/agree" ./cmd/agree)
cd "$root"
exec "$out/agree" -benchmark BENCHMARK.json -noise bench/NOISE.md "$@"
