#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload served_reads --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. Every file the build and the run
# write (Go build cache, binary, WAL directories, buffer-pool backing
# files, trace spans) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
