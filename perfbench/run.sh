#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 42 --seconds 35 --trace 0
#
# Every build and run output stays inside the checkout, under .bench_build/.
# The benchmark module replaces the repro module with the checkout root, so
# the build fails (and no result is printed) when the program sources are
# missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" GOENV=off \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
