#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds dtxd (the program under test)
# and dtxbench (this directory) from source, then runs one workload.
#
#   bash bench/run.sh --workload paper_mix --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the run write — build cache, binaries,
# per-run store directories — stays under <checkout>/.bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/dtxd" ./cmd/dtxd
go -C bench build -o "$build/dtxbench" .
exec "$build/dtxbench" "$@"
