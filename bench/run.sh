#!/usr/bin/env bash
# Builds godpm's benchmark and the dpmserve/dpmremote binaries it drives,
# then runs one workload. Run from the repository root:
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temp files, binaries, the traced
# run's spans file and dpmremote's store.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# Built outside every timed phase; the Go cache makes repeat builds cheap.
go -C bench build -o "$build/bin/godpm-bench" .
go build -o "$build/bin/" ./cmd/dpmserve ./cmd/dpmremote

exec "$build/bin/godpm-bench" -bin "$build/bin" "$@"
