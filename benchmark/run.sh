#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script sits in and runs it. Everything the build and the run write
# (compiler cache, temp files, binary, WAL and blob directories, traces)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto
# benchmark/go.work makes this module and the repository's root module one
# workspace, so the build fails (non-zero exit) where the root is missing.
go build -C "$here" -o "$build/faust-benchmark" .
cd "$root"
exec "$build/faust-benchmark" "$@"
