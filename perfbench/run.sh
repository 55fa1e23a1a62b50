#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#   bash perfbench/run.sh --workload etc_native --seed 1 --seconds 15 --trace 0
# Everything the build writes stays under .bench_build in the current
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
