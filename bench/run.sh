#!/usr/bin/env bash
# Builds the rocesim benchmark from the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload clos-bulk --seed 41 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry counters) and the binary itself stay under .bench_build/ in
# the current directory. Without the simulator's sources next to bench/
# the build fails and the script exits nonzero before printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C "$root/bench" build -o "$build/rocebench" .
exec "$build/rocebench" "$@"
