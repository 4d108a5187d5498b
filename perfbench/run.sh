#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run it from the root of the
# repository: bash perfbench/run.sh --workload std-barnes --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) and
# every traced run's spans and CPU profile stay under .bench_build in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
