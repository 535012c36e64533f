#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload server-closed --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the binary and span files all stay in
# .bench_build/ under the working directory, and the toolchain is kept
# offline, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/dpbench" .)
exec "$out/dpbench" "$@"
