#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the go tool
# writes (build cache, telemetry, the binary) stays under .bench_build in
# the checkout. Fails without a result when the repository around bench/
# is missing, because the module cannot resolve then.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

cd "$here"
go build -o "$build/disagg-perfbench" .
exec "$build/disagg-perfbench" "$@"
