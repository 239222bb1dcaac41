#!/bin/sh
# router-smoke: boot three icrowd-server shards plus icrowd-router in front
# of them, then exercise the sharded surface end-to-end: writes route by
# worker to their owning shard, reads merge across the fleet, a killed
# shard degrades to the typed shard_unavailable 503 while survivors keep
# serving, and a restart re-admits it. `make router-smoke` runs this; it is
# part of `make check`.
#
# Environment knobs: GO (toolchain), PORT (router port; shards use
# PORT+1..PORT+3).
set -eu

GO=${GO:-go}
PORT=${PORT:-18983}
S1=$((PORT + 1))
S2=$((PORT + 2))
S3=$((PORT + 3))

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
		-data-dir "$2" >"$BIN/shard_$1.log" 2>&1 &
	echo $!
}

SHARD1_PID=$(start_shard "$S1" "$BIN/shard1")
PIDS="$SHARD1_PID"
PIDS="$PIDS $(start_shard "$S2" "$BIN/shard2")"
PIDS="$PIDS $(start_shard "$S3" "$BIN/shard3")"

"$BIN/icrowd-router" -addr "127.0.0.1:$PORT" \
	-shards "http://127.0.0.1:$S1,http://127.0.0.1:$S2,http://127.0.0.1:$S3" \
	-probe-interval 250ms >"$BIN/router.log" 2>&1 &
PIDS="$PIDS $!"

BASE="http://127.0.0.1:$PORT"

fail() {
	echo "router-smoke: $1" >&2
	echo "router-smoke: router log follows" >&2
	cat "$BIN/router.log" >&2
	exit 1
}

# api METHOD URL [JSON-BODY] -> body on stdout; echoes HTTP code to fd 3.
api() {
	if [ $# -ge 3 ]; then
		curl -s -o "$BIN/resp.json" -w '%{http_code}' -X "$1" \
			-H 'Content-Type: application/json' -d "$3" "$2" >"$BIN/code"
	else
		curl -s -o "$BIN/resp.json" -w '%{http_code}' -X "$1" "$2" >"$BIN/code"
	fi
	cat "$BIN/resp.json"
}

# Wait for the fleet to come up (readyz merges every shard's probe).
ready=0
for _ in $(seq 1 80); do
	if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/readyz" 2>/dev/null)" = 200 ]; then
		ready=1
		break
	fi
	sleep 0.25
done
[ "$ready" = 1 ] || fail "fleet never became ready"

# Push a small crowd through the router: every assign must land, every
# submit must be accepted, regardless of which shard owns the worker.
for i in $(seq 1 12); do
	w="smoke-w$i"
	assign=$(api GET "$BASE/v1/assign?workerId=$w")
	[ "$(cat "$BIN/code")" = 200 ] || fail "assign $w -> HTTP $(cat "$BIN/code"): $assign"
	case "$assign" in
	*'"assigned":true'*) ;;
	*) fail "assign $w did not assign: $assign" ;;
	esac
	tid=$(printf '%s' "$assign" | sed -n 's/.*"taskId":\([0-9]*\).*/\1/p')
	body=$(api POST "$BASE/v1/submit" "{\"workerId\":\"$w\",\"taskId\":$tid,\"answer\":\"YES\"}")
	[ "$(cat "$BIN/code")" = 200 ] || fail "submit $w -> HTTP $(cat "$BIN/code"): $body"
done

# The write path must have spread across all three shards (the ring is
# balanced) — check each shard logged at least one event.
for f in "$BIN"/shard1/default/events.log "$BIN"/shard2/default/events.log "$BIN"/shard3/default/events.log; do
	[ -s "$f" ] || fail "shard log $f is empty: the ring routed nothing there"
done

# Merged reads: status sums the fleet, metrics carry a shard label per
# origin, /v1/shards reports all three up.
status=$(api GET "$BASE/v1/status")
[ "$(cat "$BIN/code")" = 200 ] || fail "status -> HTTP $(cat "$BIN/code")"
case "$status" in
*'"strategy":"RandomMV"'*) ;;
*) fail "merged status missing strategy: $status" ;;
esac
metrics=$(api GET "$BASE/v1/metrics")
case "$metrics" in
*"shard=\"http://127.0.0.1:$S1\""*) ;;
*) fail "metrics missing shard label for shard 1" ;;
esac
case "$metrics" in
*'shard="router"'*) ;;
*) fail "metrics missing the router's own series" ;;
esac
shardsjson=$(api GET "$BASE/v1/shards")
case "$shardsjson" in
*'"up":false'*) fail "a shard reports down while the fleet is whole: $shardsjson" ;;
esac

# Kill shard 1: its key range must degrade to the typed 503 (and nothing
# else), survivors must keep serving, and readyz must flip to 503.
kill "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
got503=0
survived=0
for i in $(seq 1 40); do
	w="smoke-kill-w$i"
	body=$(api GET "$BASE/v1/assign?workerId=$w")
	code=$(cat "$BIN/code")
	case "$code" in
	200) survived=$((survived + 1)) ;;
	503)
		case "$body" in
		*'"code":"shard_unavailable"'*) got503=$((got503 + 1)) ;;
		*) fail "503 without shard_unavailable code: $body" ;;
		esac
		;;
	*) fail "assign $w with dead shard -> HTTP $code: $body" ;;
	esac
done
[ "$got503" -gt 0 ] || fail "no worker hit the dead shard's range (got503=0)"
[ "$survived" -gt 0 ] || fail "no worker survived on the live shards"
for _ in $(seq 1 40); do
	[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/readyz")" = 503 ] && break
	sleep 0.25
done
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/readyz")" = 503 ] || \
	fail "readyz stayed 200 with a dead shard"

# Restart shard 1 from its event log at the same address: the router must
# re-admit it and the fleet must report ready again.
SHARD1_PID=$(start_shard "$S1" "$BIN/shard1")
PIDS="$PIDS $SHARD1_PID"
readmitted=0
for _ in $(seq 1 80); do
	if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/readyz")" = 200 ]; then
		readmitted=1
		break
	fi
	sleep 0.25
done
[ "$readmitted" = 1 ] || fail "restarted shard was never re-admitted"
grep -q "recovered events from log" "$BIN/shard_$S1.log" || \
	fail "restarted shard did not replay its own event log"

echo "router-smoke: OK (3 shards + router; kill/restart degraded and recovered cleanly)"
