#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload dense-core --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache and config included), so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="" \
	XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
