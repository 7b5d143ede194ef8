#!/usr/bin/env bash
# Builds the benchmark and the servers it drives from this checkout, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh -workload direct -seed 1
#
# Everything the toolchain and the benchmark write stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/go/cache"
export GOPATH="$build/go/path"
export GOMODCACHE="$build/go/mod"
export XDG_CONFIG_HOME="$build/go/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -build "$build" "$@"
