#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Run from the
# repository root, for example:
#
#     bash bench/run.sh --workload census-sparse --seed 1 --seconds 20 --trace 0
#     bash bench/run.sh -compare bench/results/set-a bench/results/set-b
#
# Every Go cache and temporary file lives under .bench_build in the current
# directory, so the build reads and writes nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOCACHE" "$GOTMPDIR"

(cd bench && go build -o "$out/crn-bench" .)
exec "$out/crn-bench" "$@"
