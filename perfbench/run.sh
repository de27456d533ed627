#!/usr/bin/env bash
# Builds the benchmark and the daemon from the checkout's sources into
# .bench_build/ and runs the benchmark with the given arguments, from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-engines --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 25
#
# Every file the Go toolchain writes (build cache, binaries, telemetry
# counters) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off
# The go command's telemetry counters live under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"

go -C perfbench build -o "$out/perfbench" .
go build -o "$out/unchained-serve" ./cmd/unchained-serve

exec "$out/perfbench" -serve-bin "$out/unchained-serve" -work-dir "$out/work" "$@"
