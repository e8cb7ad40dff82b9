#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload commit --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the databases the workloads create
# live under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory; nothing is written outside it.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/data" "$@"
