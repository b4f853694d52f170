#!/usr/bin/env bash
# Server smoke test for CI: start cnprobase_serve on an ephemeral port, hit
# all five endpoints with curl, check the JSON answers, then SIGTERM and
# require a graceful exit 0 (drain, not a kill). Usage:
#
#   ci/server_smoke.sh <path-to-cnprobase_serve>
set -euo pipefail

SERVE_BIN=${1:?usage: server_smoke.sh <path-to-cnprobase_serve>}
LOG=$(mktemp)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

"$SERVE_BIN" --entities 800 --threads 2 >"$LOG" 2>&1 &
SERVE_PID=$!

# Wait for the listener (the taxonomy build takes a few seconds).
for _ in $(seq 1 240); do
  grep -q "listening on" "$LOG" && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$LOG"; echo "server died during startup" >&2; exit 1; }
  sleep 0.5
done
grep -q "listening on" "$LOG" || { cat "$LOG"; echo "server never started listening" >&2; exit 1; }

PORT=$(grep -o 'listening on http://127.0.0.1:[0-9]*' "$LOG" | grep -o '[0-9]*$')
MENTION=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f3)
ENTITY=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f4)
CONCEPT=$(grep -P '^sample\t' "$LOG" | head -1 | cut -f5)
echo "serving on port $PORT (mention=$MENTION entity=$ENTITY concept=$CONCEPT)"

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
fetch men2ent    '"entities":[{"id":' -G "$BASE/v1/men2ent"    --data-urlencode "mention=$MENTION"
fetch getConcept '"concepts":["'      -G "$BASE/v1/getConcept" --data-urlencode "entity=$ENTITY"
fetch getEntity  '"entities":["'      -G "$BASE/v1/getEntity"  --data-urlencode "concept=$CONCEPT" --data-urlencode "limit=5"
fetch healthz    '"status":"ok"'      "$BASE/healthz"
fetch metrics    'cnpb_http_requests' "$BASE/metrics"

# The error contract over the wire.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/men2ent")
[ "$code" = 400 ] || { echo "FAIL missing-param: expected 400, got $code" >&2; exit 1; }
echo "ok   missing-param (400)"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/nonsense")
[ "$code" = 404 ] || { echo "FAIL unknown-path: expected 404, got $code" >&2; exit 1; }
echo "ok   unknown-path (404)"

# Strict numeric flags: an out-of-range or non-numeric port is a usage
# error (exit 2) before anything is built, never a server on some other
# port.
for BAD in 70000 abc; do
  code=0
  timeout 20 "$SERVE_BIN" --port "$BAD" --entities 800 >/dev/null 2>&1 || code=$?
  [ "$code" = 2 ] || { echo "FAIL --port $BAD: expected exit 2, got $code" >&2; exit 1; }
  echo "ok   --port $BAD rejected (exit 2)"
done

# Graceful drain: SIGTERM must yield exit 0, not a crash or a hang.
kill -TERM "$SERVE_PID"
EXIT=0
wait "$SERVE_PID" || EXIT=$?
if [ "$EXIT" != 0 ]; then
  cat "$LOG"; echo "FAIL: server exited $EXIT after SIGTERM" >&2; exit 1
fi
grep -q "draining" "$LOG" || { cat "$LOG"; echo "FAIL: no drain message" >&2; exit 1; }
echo "ok   graceful drain (exit 0)"
echo "server smoke: all checks passed"
