#!/usr/bin/env bash
# Builds pigeonringd and the benchmark from this checkout, then makes
# one benchmark run. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload search-hamming --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/: the Go
# build cache, both binaries, and per-run logs, snapshots and traces.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/runs"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bin/pigeonringd" ./cmd/pigeonringd
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" -bin "$build/bin/pigeonringd" -dir "$build/runs" "$@"
