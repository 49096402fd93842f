#!/bin/sh
# End-to-end smoke of cmd/ehserve (invoked via `make serve-smoke`):
# build the server, start it on a local port with a disk-backed result
# store, issue the same figure query twice — the second MUST come back
# as an X-EH-Cache hit with byte-identical body, and its request trace
# (fetched from /v1/trace/{id} by the X-EH-Trace ID we name) MUST show
# a cache-hit lookup span and no simulation cell spans — plus a
# provenance query (0 computed cells when warm), six concurrent
# identical queries for a new figure (exactly one generates it, the
# rest coalesce or hit, all bodies identical), the sampled metrics
# series, one sweep and one model query. The store's counters land in
# serve_smoke_stats.json and the warm request's span tree in
# serve_smoke_trace.json (CI uploads both as artifacts) before a
# graceful shutdown, whose log must carry the telemetry summary.
set -eu
cd "$(dirname "$0")/.."

ADDR="${EHSERVE_ADDR:-127.0.0.1:8093}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SRV_PID=""

cleanup() {
	if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
		kill -TERM "$SRV_PID" 2>/dev/null || true
		wait "$SRV_PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
	echo "serve-smoke: $*" >&2
	[ -f "$WORK/server.log" ] && sed 's/^/  server: /' "$WORK/server.log" >&2
	exit 1
}

# A header check that survives curl's CRLF line endings and Go's
# canonical X-Eh-Cache capitalization.
header_is() { # file name want
	tr -d '\r' <"$1" | grep -qi "^$2: $3\$"
}

echo "== build =="
go build -o "$WORK/ehserve" ./cmd/ehserve

echo "== start (cache disk, $ADDR) =="
"$WORK/ehserve" -addr "$ADDR" -cache disk -cache-dir "$WORK/cache" \
	-series-interval 500ms \
	>"$WORK/server.log" 2>&1 &
SRV_PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -ge 100 ] && fail "server never became healthy on $ADDR"
	kill -0 "$SRV_PID" 2>/dev/null || fail "server exited during startup"
	sleep 0.1
done

FIG="$BASE/v1/figure?id=5&quick=true"

echo "== figure (cold) =="
curl -fsS -D "$WORK/h1" -o "$WORK/b1" "$FIG"
header_is "$WORK/h1" x-eh-cache miss || fail "first figure response was not a miss"

echo "== figure (warm) =="
# Name the warm request's trace ourselves so we can fetch it by ID.
TRACE_ID="cafe0123cafe0123"
curl -fsS -H "X-EH-Trace: $TRACE_ID" -D "$WORK/h2" -o "$WORK/b2" "$FIG"
header_is "$WORK/h2" x-eh-cache hit || fail "second figure response was not a cache hit"
cmp -s "$WORK/b1" "$WORK/b2" || fail "cached figure response differs from the generated one"
header_is "$WORK/h2" x-eh-trace "$TRACE_ID" || fail "trace ID not echoed on the warm response"

echo "== trace (warm request: cache-hit span, no cells) =="
curl -fsS "$BASE/v1/trace/$TRACE_ID" -o serve_smoke_trace.json
grep -q '"name": "cache.lookup"' serve_smoke_trace.json || fail "trace missing the cache.lookup span"
grep -q '"outcome": "hit"' serve_smoke_trace.json || fail "warm trace's lookup span is not a cache hit"
grep -q '"name": "cell"' serve_smoke_trace.json && fail "warm trace contains simulation cell spans"
# The chrome export of the same trace must be loadable trace_event JSON.
curl -fsS "$BASE/v1/trace/$TRACE_ID?format=chrome" -o "$WORK/trace_chrome.json"
grep -q '"traceEvents"' "$WORK/trace_chrome.json" || fail "chrome trace export malformed"

echo "== provenance (warm: 0 computed cells) =="
curl -fsS "$FIG&provenance=1" -o "$WORK/prov.json"
grep -q '"computed_cells": 0' "$WORK/prov.json" || fail "warm provenance reports computed cells"
grep -q '"cache": "hit"' "$WORK/prov.json" || fail "warm provenance does not report the response-cache hit"

echo "== figure (6 concurrent identical requests) =="
# Only the request singleflight and the byte cache stand between these
# and six generations: exactly one request leads (miss), the others
# coalesce onto its flight or hit the bytes it cached.
CFIG="$BASE/v1/figure?id=10&quick=true"
pids=""
for n in 1 2 3 4 5 6; do
	curl -fsS -D "$WORK/ch$n" -o "$WORK/cb$n" "$CFIG" &
	pids="$pids $!"
done
for p in $pids; do
	wait "$p" || fail "a concurrent figure request failed"
done
leaders=0
for n in 1 2 3 4 5 6; do
	cmp -s "$WORK/cb1" "$WORK/cb$n" || fail "concurrent reply $n differs from reply 1"
	if header_is "$WORK/ch$n" x-eh-cache miss; then
		leaders=$((leaders + 1))
	elif ! header_is "$WORK/ch$n" x-eh-cache coalesced && ! header_is "$WORK/ch$n" x-eh-cache hit; then
		fail "concurrent reply $n is neither miss, coalesced nor hit"
	fi
done
[ "$leaders" -eq 1 ] || fail "$leaders of 6 concurrent replies were misses, want exactly 1"

echo "== metrics series =="
sleep 1.2 # let at least two sampling intervals elapse
curl -fsS "$BASE/v1/metrics/series" -o "$WORK/series.json"
grep -q '"unix_ms"' "$WORK/series.json" || fail "metrics series has no samples"

echo "== sweep =="
curl -fsS "$BASE/v1/sweep?lo=1&hi=1000&n=50" -o "$WORK/sweep.json"
grep -q '"tau_b_opt"' "$WORK/sweep.json" || fail "sweep response missing tau_b_opt"

echo "== model =="
curl -fsS "$BASE/v1/model?tau_b=10&alpha_b=0.1" -o "$WORK/model.json"
grep -q '"progress"' "$WORK/model.json" || fail "model response missing progress"

echo "== store stats =="
curl -fsS "$BASE/metrics?format=json" -o serve_smoke_stats.json
grep -q '"cache_misses"' serve_smoke_stats.json || fail "metrics export missing store counters"
# The warm figure reply came from the response cache, so the result
# store must have simulated the figure exactly once: misses > 0 from
# the cold pass, and four total requests on the books.
misses="$(sed -n 's/.*"cache_misses": \([0-9]*\).*/\1/p' serve_smoke_stats.json | head -n 1)"
[ -n "$misses" ] && [ "$misses" -gt 0 ] || fail "no result-store misses recorded (got '$misses')"

echo "== graceful shutdown =="
kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "server exited non-zero on SIGTERM"
grep -q "drained" "$WORK/server.log" || fail "server log missing drain summary"
grep -q "telemetry" "$WORK/server.log" || fail "server log missing telemetry summary"
grep -q "store hit rate" "$WORK/server.log" || fail "telemetry summary missing the store hit rate"
SRV_PID=""

echo "serve-smoke: OK (stats in serve_smoke_stats.json, span tree in serve_smoke_trace.json)"
