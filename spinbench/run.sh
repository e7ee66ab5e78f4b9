#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it from the
# repository root with the given flags, e.g.
#   bash spinbench/run.sh --workload sweep_fig6 --seed 42 --seconds 20 --trace 0
# Every build artifact, including the Go build cache, stays inside the
# checkout under .bench_build.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/spinbench" && go build -o "$build/spinbench" .)
exec "$build/spinbench" "$@"
