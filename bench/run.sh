#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it from there. Everything Go writes (build cache, temp
# files) stays inside the checkout; nothing is left running.
#
#   bash bench/run.sh --workload solve_bound --seed 1 --seconds 30 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/spqbench" .
cd "$root"
exec "$build/spqbench" "$@"
