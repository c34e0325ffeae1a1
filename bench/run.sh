#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent-*.json -- change-*.json
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the checkout, and nothing is
# fetched from the network: the benchmark module has no dependency outside
# the checkout. A directory holding only the benchmark (no simulator
# sources next to it) fails the build and exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
