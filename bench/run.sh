#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, temporary
# files, its telemetry counters, the binary) goes under .bench_build at the
# checkout root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
