#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash _perfbench/run.sh --workload grid100k --seed 1 --seconds 45 --trace 0
#
# Build outputs and the Go caches stay under .bench_build at the root of
# the checkout. Without the repository around it, the build fails and
# the script exits non-zero.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
