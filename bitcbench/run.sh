#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#   bash bitcbench/run.sh --workload kernels --seed 1 --seconds 10 --trace 0
# Every build product and cache stays under .bench_build in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/bitcbench" && go build -o "$build/bitcbench" .) >&2
exec "$build/bitcbench" "$@"
