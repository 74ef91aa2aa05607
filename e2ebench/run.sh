#!/usr/bin/env bash
# Builds the datagram-to-verdict benchmark from source and runs it
# with the given arguments. Run from the repository root:
#
#	bash e2ebench/run.sh --workload day-v5 --seed 42 --seconds 10 --trace 0
#
# Every build product and cache lands in .bench_build/ under the working
# directory, so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off GOPROXY=off

go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
