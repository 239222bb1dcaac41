#!/bin/sh
# trace-smoke: boot two icrowd-server shards behind icrowd-router, push one
# assign+submit through the router, then assert GET /v1/trace/{traceid} on
# the router assembles the cross-process tree: the router's span is the
# root, the owning shard's http.submit span is its child, and every span
# shares the one 128-bit trace ID echoed in X-Request-Id. Also checks the
# router's /v1/slo rollup answers, since the shards run with -slo-latency.
# `make trace-smoke` runs this; it is part of `make check`.
#
# Environment knobs: GO (toolchain), PORT (router port; shards use
# PORT+1..PORT+2).
set -eu

GO=${GO:-go}
PORT=${PORT:-18993}
S1=$((PORT + 1))
S2=$((PORT + 2))

BIN=$(mktemp -d)
PIDS=
cleanup() {
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

$GO build -o "$BIN/icrowd-server" ./cmd/icrowd-server
$GO build -o "$BIN/icrowd-router" ./cmd/icrowd-router

start_shard() {
	# start_shard PORT DATADIR -> pid on stdout
	"$BIN/icrowd-server" -addr "127.0.0.1:$1" -strategy randommv -k 3 \
		-data-dir "$2" -slo-latency 250ms >"$BIN/shard_$1.log" 2>&1 &
	echo $!
}

PIDS="$(start_shard "$S1" "$BIN/shard1")"
PIDS="$PIDS $(start_shard "$S2" "$BIN/shard2")"

"$BIN/icrowd-router" -addr "127.0.0.1:$PORT" \
	-shards "http://127.0.0.1:$S1,http://127.0.0.1:$S2" \
	-probe-interval 250ms >"$BIN/router.log" 2>&1 &
PIDS="$PIDS $!"

BASE="http://127.0.0.1:$PORT"

fail() {
	echo "trace-smoke: $1" >&2
	echo "trace-smoke: router log follows" >&2
	cat "$BIN/router.log" >&2
	exit 1
}

# Wait for the fleet to come up.
ready=0
for _ in $(seq 1 80); do
	if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/readyz" 2>/dev/null)" = 200 ]; then
		ready=1
		break
	fi
	sleep 0.25
done
[ "$ready" = 1 ] || fail "fleet never became ready"

# One assign + submit through the router, capturing the submit's trace ID
# from the router's X-Request-Id echo.
assign=$(curl -s "$BASE/v1/assign?workerId=trace-w1")
case "$assign" in
*'"assigned":true'*) ;;
*) fail "assign did not assign: $assign" ;;
esac
tid=$(printf '%s' "$assign" | sed -n 's/.*"taskId":\([0-9]*\).*/\1/p')
curl -s -D "$BIN/headers" -o "$BIN/submit.json" \
	-H 'Content-Type: application/json' \
	-d "{\"workerId\":\"trace-w1\",\"taskId\":$tid,\"answer\":\"YES\"}" \
	"$BASE/v1/submit"
rid=$(sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *//p' "$BIN/headers" | tr -d '\r' | head -n 1)
printf '%s' "$rid" | grep -Eq '^[0-9a-f]{32}$' || \
	fail "submit X-Request-Id is not a 128-bit trace ID: '$rid'"

trace=$(curl -s "$BASE/v1/trace/$rid")
printf '%s' "$trace" >"$BIN/trace.json"

# The flat span list must hold the router's span and the owning shard's
# request span plus its sub-operation children, all in the same trace.
for want in '"name":"router.submit"' '"origin":"router"' \
	'"name":"http.submit"' '"origin":"http://127.0.0.1:' \
	'"name":"log.append"' '"name":"scheme.recompute"'; do
	case "$trace" in
	*"$want"*) ;;
	*) fail "assembly missing $want: $trace" ;;
	esac
done
spans=$(grep -o "\"traceId\":\"$rid\"" "$BIN/trace.json" | wc -l)
[ "$spans" -ge 4 ] || fail "only $spans spans share trace $rid, want >= 4"

# The assembled tree's root must be the router's span: the first name
# inside the "tree" section is the root's.
tree=${trace#*\"tree\":}
root=$(printf '%s' "$tree" | grep -o '"name":"[^"]*"' | head -n 1)
[ "$root" = '"name":"router.submit"' ] || \
	fail "tree root is $root, want router.submit"

# The SLO rollup merges the shards' burn-rate reports.
slo=$(curl -s "$BASE/v1/slo")
case "$slo" in
*'"objectives"'*) ;;
*) fail "router /v1/slo did not answer with a merged report: $slo" ;;
esac
case "$slo" in
*'"key":"submit"'*) ;;
*) fail "merged SLO report missing the submit objective: $slo" ;;
esac

echo "trace-smoke: OK (trace $rid assembled across router + shard; SLO rollup answered)"
