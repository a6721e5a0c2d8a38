#!/usr/bin/env bash
# Builds the VAB benchmark from source and runs it. Run from the repository
# root; every argument goes to vabperf, for example
#
#   bash internal/benchmark/run.sh --workload fleet_1m --seed 1 --seconds 10 --trace 0
#   bash internal/benchmark/run.sh --workload all --seed 1 --seconds 10 --trace 0
#   bash internal/benchmark/run.sh --compare old.json new.json   # exit 1 on a regression
#
# The binary, the Go build cache and the span files of traced runs stay
# under .bench_build/ in the repository root. The first run compiles the
# standard library into that cache; later runs rebuild in about a second.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/internal/benchmark" && go build -o "$out/vabperf" ./cmd/vabperf)
exec "$out/vabperf" "$@"
