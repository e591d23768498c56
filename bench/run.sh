#!/usr/bin/env bash
# Builds the benchmark harness and the vaxd binary from this checkout's
# sources into .bench_build/ (Go build cache included, so nothing is
# written outside the checkout), then runs the harness with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload composite --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1              # all four workloads
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/bin/bench" . && go build -o "$out/bin/vaxd" vax780/cmd/vaxd)
exec "$out/bin/bench" -vaxd "$out/bin/vaxd" -work "$out" "$@"
