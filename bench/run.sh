#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (BENCHMARK.json's command). Everything the build
# writes — compiler cache, temporary files, the binary — stays under
# .bench_build, so a run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
