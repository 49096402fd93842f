#!/usr/bin/env bash
# Builds ehbench and ehserve from this checkout and runs ehbench with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload figs-cold --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --seed 1 --out /tmp/ehbench-results
#
# Everything the build and the run write (Go build cache, binaries,
# temporary stores) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -C bench -o "$build/bin/ehbench" ./ehbench
go build -o "$build/bin/ehserve" ./cmd/ehserve
exec "$build/bin/ehbench" -ehserve "$build/bin/ehserve" "$@"
