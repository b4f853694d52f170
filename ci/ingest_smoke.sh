#!/usr/bin/env bash
# Ingest daemon smoke test for CI: the crash-safety contract, end to end.
#
#   1. boot cnprobase_serve with one ingest collection on a fresh --root
#   2. feed page upserts through POST /v1/ingest (every 200 = durable ack)
#   3. SIGKILL the daemon mid-stream — no drain, no cleanup
#   4. restart on the same --root; recovery must replay the suffix
#   5. verify via the API that NO acked page is lost and none is duplicated
#   6. SIGTERM: graceful drain must exit 0
#
# Usage: ci/ingest_smoke.sh <path-to-cnprobase_serve>
set -euo pipefail

INGESTD_BIN=${1:?usage: ingest_smoke.sh <path-to-cnprobase_serve>}
WORK=$(mktemp -d)
LOG="$WORK/ingestd.log"
INGESTD_PID=""
trap 'kill -9 "$INGESTD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

boot() {
  : >"$LOG"
  "$INGESTD_BIN" --root "$WORK/root" --ingest default --entities 400 --threads 2 \
    --publish-min-pages 4 --publish-max-delay-ms 50 --compact-every 6 \
    >"$LOG" 2>&1 &
  INGESTD_PID=$!
  for _ in $(seq 1 240); do
    grep -q "listening on" "$LOG" && break
    kill -0 "$INGESTD_PID" 2>/dev/null || { cat "$LOG"; echo "daemon died during startup" >&2; exit 1; }
    sleep 0.5
  done
  grep -q "listening on" "$LOG" || { cat "$LOG"; echo "daemon never started listening" >&2; exit 1; }
  PORT=$(grep -o 'listening on http://127.0.0.1:[0-9]*' "$LOG" | grep -o '[0-9]*$')
  BASE="http://127.0.0.1:$PORT"
}

# ingest <lines>: POST and require a durable ack (200 + last_lsn).
ingest() {
  local body code
  body=$(curl -sS -w '\n%{http_code}' --data-binary "$1" "$BASE/v1/ingest")
  code=${body##*$'\n'}
  body=${body%$'\n'*}
  if [ "$code" != 200 ]; then
    echo "FAIL ingest: HTTP $code — $body" >&2; exit 1
  fi
  case $body in
    *'"last_lsn":'*) : ;;
    *) echo "FAIL ingest: no last_lsn in $body" >&2; exit 1 ;;
  esac
}

# getconcept <entity>: prints the concepts JSON array for an entity.
getconcept() {
  curl -sS -G "$BASE/v1/getConcept" --data-urlencode "entity=$1"
}

boot
echo "phase 1: daemon on port $PORT, feeding acked upserts"

# Pages with explicit tag-derived relations; smoke_cat is the oracle
# concept. Names are ASCII for curl convenience — CJK round-trips are
# covered by wal_test.
ACKED=()
for i in $(seq 1 10); do
  ingest "$(printf 'u\tsmoke_ent_%d\tsmoke_ent_%d\t\t\t\tsmoke_cat' "$i" "$i")"
  ACKED+=("smoke_ent_$i")
done
# A duplicate re-submission of an already-acked page: must remain one page.
ingest "$(printf 'u\tsmoke_ent_1\tsmoke_ent_1\t\t\t\tsmoke_cat')"

echo "phase 2: SIGKILL mid-batch (no drain)"
# One more ack right before the kill so the WAL tail is fresh.
ingest "$(printf 'u\tsmoke_ent_11\tsmoke_ent_11\t\t\t\tsmoke_cat')"
ACKED+=("smoke_ent_11")
kill -9 "$INGESTD_PID"
wait "$INGESTD_PID" 2>/dev/null || true

echo "phase 3: restart on the same WAL dir"
boot
grep -q "recovered wal" "$LOG" || { cat "$LOG"; echo "FAIL: no recovery line" >&2; exit 1; }

echo "phase 4: verify no acked page lost, none duplicated"
sleep 1  # allow the post-recovery publish to land
for name in "${ACKED[@]}"; do
  concepts=$(getconcept "$name")
  case $concepts in
    *smoke_cat*) : ;;
    *) cat "$LOG"; echo "FAIL: acked page $name lost after crash ($concepts)" >&2; exit 1 ;;
  esac
done
# Duplicate check: the re-submitted page must resolve to exactly one entity.
dup=$(curl -sS -G "$BASE/v1/getEntity" --data-urlencode "concept=smoke_cat" --data-urlencode "limit=100" \
      | grep -o 'smoke_ent_1"' | wc -l)
[ "$dup" = 1 ] || { echo "FAIL: smoke_ent_1 appears $dup times (dup apply)" >&2; exit 1; }

# The daemon keeps accepting after recovery.
ingest "$(printf 'u\tsmoke_ent_12\tsmoke_ent_12\t\t\t\tsmoke_cat')"
status=$(curl -sS "$BASE/v1/ingest_status")
case $status in
  *'"acked":'*) echo "ok   ingest_status: $status" ;;
  *) echo "FAIL ingest_status: $status" >&2; exit 1 ;;
esac

echo "phase 5: graceful drain"
kill -TERM "$INGESTD_PID"
EXIT=0
wait "$INGESTD_PID" || EXIT=$?
if [ "$EXIT" != 0 ]; then
  cat "$LOG"; echo "FAIL: daemon exited $EXIT after SIGTERM" >&2; exit 1
fi
grep -q "drained:" "$LOG" || { cat "$LOG"; echo "FAIL: no drain summary" >&2; exit 1; }
echo "ingest smoke: all checks passed"
