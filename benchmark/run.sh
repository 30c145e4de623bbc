#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from the checkout
# it sits in, then run it. Everything the build leaves behind goes under
# .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/openmb-benchmark" .
exec "$build/openmb-benchmark" "$@"
