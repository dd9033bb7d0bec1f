#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it with
# the driver's flags (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# The binary, Go's build cache and every temporary file live under
# .bench_build/ in the checkout, and the run's outputs under bench/out/, so
# nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/pmbench" ./bench
exec "$build/pmbench" "$@"
