#!/usr/bin/env bash
# Builds shed and the benchmark from the sources of the checkout it is
# run from, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload library --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binaries, WAL directories, span files)
# goes under $CARGO_TARGET_DIR, default .bench_build, in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# With telemetry in its default "local" mode, the first go command under a
# fresh config directory forks a detached upload process that outlives
# this script. Mode "off" starts no such process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off %s' "$(date -u +%F)" > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$here" && go build -o "$build/bin/shed" she/cmd/shed && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" --shed "$build/bin/shed" --work "$build" "$@"
