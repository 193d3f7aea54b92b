#!/usr/bin/env bash
# Builds elperf from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh --workload ramp-100k --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -compare runs/parent runs/change
#
# Every file the build and the run write (Go build cache, temporary
# files, the binary, the CPU profile) stays under .bench_build/ in the
# current directory. The build never downloads a toolchain or a module.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C bench -o "$out/elperf" ./elperf
exec "$out/elperf" "$@"
