#!/usr/bin/env bash
# Alternating A/B pairs of the benchmark (invoked via `make bench-ab`):
# the commit REF (default HEAD), exported with git archive, against this
# checkout's working tree, one pair per seed, on one workload or all:
#
#   bash scripts/bench_ab.sh WORKLOAD SEED...
#   REF=HEAD~1 bash scripts/bench_ab.sh sim-harvest 21 22 23 24 25 26 27 28 29 30
#
# Each side of a pair is `bench/run.sh --workload W --seed S --trace 0
# --out DIR`, run in its own tree. Odd pairs run REF first and even
# pairs the checkout first, so a host whose speed drifts over the runs
# favours neither side. The last step is `bench/run.sh compare`:
# a verdict per workload and metric. Everything lands under
# .bench_build/ab/: ref/ (the export and its build), out-ref/ and
# out-change/ (the result files compare reads); each invocation starts
# them afresh. Nothing under bench/ changes.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: [REF=commit] bash scripts/bench_ab.sh WORKLOAD SEED..." >&2
	exit 2
fi
workload=$1
shift
ref=${REF:-HEAD}
ab="$PWD/.bench_build/ab"
rm -rf "$ab/ref" "$ab/out-ref" "$ab/out-change"
mkdir -p "$ab/ref" "$ab/out-ref" "$ab/out-change"
git archive "$ref" | tar -x -C "$ab/ref"

# side runs one side of a pair: side ref|change seed
side() {
	echo "== $1, seed $2 =="
	if [ "$1" = ref ]; then
		(cd "$ab/ref" && bash bench/run.sh --workload "$workload" --seed "$2" --trace 0 --out "$ab/out-ref")
	else
		bash bench/run.sh --workload "$workload" --seed "$2" --trace 0 --out "$ab/out-change"
	fi
}

pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	if [ $((pair % 2)) -eq 1 ]; then
		side ref "$seed"
		side change "$seed"
	else
		side change "$seed"
		side ref "$seed"
	fi
done
bash bench/run.sh compare "$ab/out-ref" "$ab/out-change"
