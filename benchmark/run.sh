#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, keeping the Go build cache, temp files and every store inside
# the checkout (under .bench_build/).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
