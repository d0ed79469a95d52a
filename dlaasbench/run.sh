#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash dlaasbench/run.sh --workload job-stream --seed 1 --seconds 30 --trace 0
#
# Every build artifact (the binary and Go's build cache) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config"

(cd "$root/dlaasbench" && go build -o "$build/dlaasbench" .)
exec "$build/dlaasbench" "$@"
