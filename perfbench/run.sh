#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, e.g.
#
#   bash perfbench/run.sh --workload learn --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
