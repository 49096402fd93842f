#!/bin/sh
# Fails unless the compiler inlines both halves of the capacitor's
# settle step (energy.Settle.Credit and Draw) at their call sites in the
# two fused loops, internal/device/fused.go and sleep.go. A half pushed
# over the inliner's budget leaves every result bit-identical, so no
# test sees it; only the benchmark would notice the extra call per
# instruction or sleep chunk.
set -eu
cd "$(dirname "$0")/.."

if ! out="$(${GO:-go} build -gcflags=-m ./internal/device 2>&1)"; then
	printf '%s\n' "$out"
	exit 1
fi
status=0
for file in fused.go sleep.go; do
	for half in Credit Draw; do
		if ! printf '%s\n' "$out" | grep -q "/$file:[0-9]*:[0-9]*: inlining call to energy\.Settle\.$half\$"; then
			echo "inline-check: energy.Settle.$half is not inlined in internal/device/$file"
			status=1
		fi
	done
done
if [ "$status" -ne 0 ]; then
	echo "inline-check: the costs are in: go build -gcflags=-m=2 ./internal/energy"
	exit 1
fi
echo "inline-check: energy.Settle.Credit and Draw inlined in fused.go and sleep.go"
