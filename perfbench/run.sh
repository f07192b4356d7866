#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 32 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build in the current directory. The build never touches the
# network: the benchmark module needs only the repository's own module.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOFLAGS= \
    GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
