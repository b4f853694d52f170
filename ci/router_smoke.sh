#!/usr/bin/env bash
# Router smoke test for CI: launch cnprobase_serve in the router role with
# 1 shard x 2 replica backends, query every endpoint through the router
# (bare and under /v1/c/default/, with the batch envelope's options head),
# kill one backend mid-flight and verify the answers stay correct
# (degraded, not down), check that a router failing to bind its port
# leaves no backend or snapshot behind, then SIGTERM the whole tree and
# require a graceful exit 0. Usage:
#
#   ci/router_smoke.sh <path-to-cnprobase_serve>
set -euo pipefail

ROUTER_BIN=${1:?usage: router_smoke.sh <path-to-cnprobase_serve>}
LOG=$(mktemp)
BUSY_LOG=$(mktemp)
trap 'kill "$ROUTER_PID" 2>/dev/null || true; rm -f "$LOG" "$BUSY_LOG"' EXIT

"$ROUTER_BIN" --shards 1 --replicas 2 --entities 800 --threads 2 \
  --hedge-ms 20 >"$LOG" 2>&1 &
ROUTER_PID=$!

# Wait for the router (taxonomy build + snapshot + backend spawn).
for _ in $(seq 1 240); do
  grep -q "router listening on" "$LOG" && break
  kill -0 "$ROUTER_PID" 2>/dev/null || { cat "$LOG"; echo "router died during startup" >&2; exit 1; }
  sleep 0.5
done
grep -q "router listening on" "$LOG" || { cat "$LOG"; echo "router never started listening" >&2; exit 1; }

PORT=$(grep -o 'router listening on http://127.0.0.1:[0-9]*' "$LOG" | grep -o '[0-9]*$')
MENTION=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f3)
ENTITY=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f4)
CONCEPT=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f5)
BACKEND_PIDS=$(grep -o 'backend pid=[0-9]*' "$LOG" | grep -o '[0-9]*')
echo "router on port $PORT, backends: $(echo "$BACKEND_PIDS" | tr '\n' ' ')"
[ "$(echo "$BACKEND_PIDS" | wc -l)" = 2 ] || { cat "$LOG"; echo "expected 2 backends" >&2; exit 1; }

# fetch <name> <expected-substring> <url...>: 200 + body contains substring.
fetch() {
  local name=$1 expect=$2; shift 2
  local body code
  body=$(curl -sS -w '\n%{http_code}' "$@")
  code=${body##*$'\n'}
  body=${body%$'\n'*}
  if [ "$code" != 200 ]; then
    echo "FAIL $name: HTTP $code — $body" >&2; exit 1
  fi
  case $body in
    *"$expect"*) echo "ok   $name" ;;
    *) echo "FAIL $name: body missing '$expect' — $body" >&2; exit 1 ;;
  esac
}

BASE="http://127.0.0.1:$PORT"
fetch men2ent      '"entities":[{"id":' -G "$BASE/v1/men2ent"    --data-urlencode "mention=$MENTION"
fetch getConcept   '"concepts":["'      -G "$BASE/v1/getConcept" --data-urlencode "entity=$ENTITY"
fetch getEntity    '"entities":["'      -G "$BASE/v1/getEntity"  --data-urlencode "concept=$CONCEPT" --data-urlencode "limit=5"
fetch batch        '"results":['        -X POST --data-binary "$ENTITY" "$BASE/v1/getConcept_batch"
fetch healthz      '"status":"ok"'      "$BASE/healthz"
fetch metrics      'router_forwarded_total' "$BASE/metrics"

# The /v1/c/<name>/ branch: a prefixed path through the router answers
# byte-identically to its bare form, and a merged batch keeps the backend's
# batch envelope, options head included.
same() {
  local name=$1 bare=$2 prefixed=$3; shift 3
  local a b
  a=$(curl -sS "$@" "$BASE$bare")
  b=$(curl -sS "$@" "$BASE$prefixed")
  if [ -z "$a" ] || [ "$a" != "$b" ]; then
    echo "FAIL $name: bare and prefixed answers differ — '$a' vs '$b'" >&2; exit 1
  fi
  echo "ok   $name"
}
same prefixed-getConcept /v1/getConcept /v1/c/default/getConcept \
  -G --data-urlencode "entity=$ENTITY"
same prefixed-batch /v1/getConcept_batch /v1/c/default/getConcept_batch \
  -G --data-urlencode "entity=$ENTITY" --data-urlencode "entity=$MENTION"
fetch batch-head '"transitive":false' -G "$BASE/v1/getConcept_batch" \
  --data-urlencode "entity=$ENTITY"

# Every data answer must carry the generation stamp the coherence barrier
# keys on.
VERSION=$(curl -sS -D - -o /dev/null -G "$BASE/v1/getConcept" --data-urlencode "entity=$ENTITY" \
  | tr -d '\r' | awk -F': ' 'tolower($1)=="x-taxonomy-version"{print $2}')
[ -n "$VERSION" ] || { echo "FAIL: no X-Taxonomy-Version header" >&2; exit 1; }
echo "ok   version header ($VERSION)"

# Kill one replica: the shard keeps a live backend, so the router must keep
# answering correctly (failover/hedge), and /healthz must report degraded.
VICTIM=$(echo "$BACKEND_PIDS" | head -1)
kill -TERM "$VICTIM"
for _ in $(seq 1 50); do kill -0 "$VICTIM" 2>/dev/null || break; sleep 0.1; done
echo "killed backend $VICTIM"

for i in 1 2 3 4; do
  fetch "failover-$i" '"concepts":["' -G "$BASE/v1/getConcept" --data-urlencode "entity=$ENTITY"
done
fetch degraded-batch '"results":[' -X POST --data-binary "$ENTITY" "$BASE/v1/getConcept_batch"
# The dead replica must be visible in the health report within a few
# failed probes.
DEGRADED=0
for _ in $(seq 1 20); do
  if curl -sS "$BASE/healthz" | grep -q '"status":"degraded"'; then DEGRADED=1; break; fi
  curl -sS -o /dev/null -G "$BASE/v1/getConcept" --data-urlencode "entity=$ENTITY" || true
  sleep 0.1
done
[ "$DEGRADED" = 1 ] || { echo "FAIL: healthz never reported degraded" >&2; exit 1; }
echo "ok   degraded-but-correct after backend kill"

# A second router whose frontend port is taken (by the first) must fail
# without leaving anything behind: nonzero exit, every backend it spawned
# gone, and its temp snapshot removed.
BUSY=0
timeout 120 "$ROUTER_BIN" --shards 1 --replicas 2 --entities 800 --threads 2 \
  --port "$PORT" >"$BUSY_LOG" 2>&1 || BUSY=$?
if [ "$BUSY" = 0 ] || [ "$BUSY" = 124 ]; then
  cat "$BUSY_LOG"; echo "FAIL: router on a taken port exited $BUSY" >&2; exit 1
fi
BUSY_PIDS=$(grep -o 'backend pid=[0-9]*' "$BUSY_LOG" | grep -o '[0-9]*' || true)
[ -n "$BUSY_PIDS" ] || { cat "$BUSY_LOG"; echo "FAIL: taken-port router spawned no backends" >&2; exit 1; }
for pid in $BUSY_PIDS; do
  if kill -0 "$pid" 2>/dev/null; then
    kill -TERM "$pid"
    echo "FAIL: backend $pid outlived its failed router" >&2; exit 1
  fi
done
BUSY_SNAPSHOT=$(sed -n 's/^snapshot -> //p' "$BUSY_LOG")
if [ -z "$BUSY_SNAPSHOT" ] || [ -e "$BUSY_SNAPSHOT" ]; then
  echo "FAIL: temp snapshot '$BUSY_SNAPSHOT' left behind" >&2; exit 1
fi
echo "ok   taken port: exit $BUSY, backends reaped, snapshot removed"

# Graceful drain of the whole tree: SIGTERM must yield exit 0.
kill -TERM "$ROUTER_PID"
EXIT=0
wait "$ROUTER_PID" || EXIT=$?
if [ "$EXIT" != 0 ]; then
  cat "$LOG"; echo "FAIL: router exited $EXIT after SIGTERM" >&2; exit 1
fi
grep -q "draining router" "$LOG" || { cat "$LOG"; echo "FAIL: no drain message" >&2; exit 1; }
grep -q "backends reaped" "$LOG" || { cat "$LOG"; echo "FAIL: backends not reaped" >&2; exit 1; }
echo "ok   graceful drain (exit 0)"
echo "router smoke: all checks passed"
