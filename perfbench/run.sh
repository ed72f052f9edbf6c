#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sig-zipf --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent.txt change.txt
#   bash perfbench/run.sh spec > BENCHMARK.json
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Go's default install location, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
