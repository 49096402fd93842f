#!/bin/sh
# Tier-1 gate (see ROADMAP.md). Equivalent to `make check`; kept as a
# plain shell script for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== inline check =="
sh scripts/inline_check.sh

# Race-free pass runs the full engine-equivalence matrix; the -race
# pass re-runs everything on the oracle's representative slice (the
# detector's ~10x slowdown would blow the package timeout otherwise).
echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

# The benchmark harness is its own module; its golden digests pin the
# per-step path both engines share, which the oracle cannot see.
echo "== bench smoke =="
(cd bench && go vet ./... && go test -short ./...)

echo "all checks passed"
