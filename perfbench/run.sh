#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs leave behind goes under .bench_build/ at
# the root of the tree; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
