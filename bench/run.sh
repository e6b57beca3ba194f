#!/usr/bin/env bash
# Builds webbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload window-paper --seed 1 --seconds 12 --trace 0
#
# Everything the go tool and the benchmark write lands in .bench_build/ at
# the root (build cache, binary, scratch files, traces), and the build never
# touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/bench" && go build -o "$out/webbench" ./cmd/webbench)
exec "$out/webbench" -scratch "$out" "$@"
