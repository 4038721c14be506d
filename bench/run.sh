#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the build leaves behind (the go build cache,
# the binary) goes under .bench_build/, everything a run leaves behind
# under bench/out/; neither touches anything outside the checkout.
#
#   bash bench/run.sh --workload read.cold --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -seed 1 -out bench/out/run.json
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
