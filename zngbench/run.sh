#!/usr/bin/env bash
# Builds the benchmark and zngd from the source in this checkout, then
# runs one workload. Run it from the root of the repository:
#
#   bash zngbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/zngbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# Both builds resolve module zng from the checkout root (zngbench/go.mod
# replaces it with ..), so a directory without the repository fails
# here, before anything is measured.
(cd "$root/zngbench" && go build -o "$out/zngbench" . && go build -o "$out/zngd" zng/cmd/zngd) >&2

exec "$out/zngbench" -zngd "$out/zngd" -workdir "$out/run" "$@"
