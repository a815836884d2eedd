#!/usr/bin/env bash
# feobench — the repository's benchmark (BENCHMARK.json runs this file).
#
#   bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Builds cmd/feo and bench/cmd/feobench from source into .bench_build/ at
# the root of the checkout, then runs feobench there. Without --workload
# all four workloads run, one after another. Everything the run writes —
# build cache, binaries, data directories, server logs, result files —
# stays under .bench_build/. See bench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/feo" ]; then
	echo "bench/run.sh: no repository around bench/ (want ../go.mod and ../cmd/feo)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's own files inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

(cd "$root" && go build -o "$out/feo" ./cmd/feo)
(cd "$here" && go build -o "$out/feobench" ./cmd/feobench)
exec "$out/feobench" -feo "$out/feo" -work "$out" "$@"
