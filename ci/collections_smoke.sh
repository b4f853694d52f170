#!/usr/bin/env bash
# Multi-collection smoke test for CI: two taxonomies (site-split synth
# worlds) in one process, end to end.
#
#   1. boot cnprobase_serve with a fresh --root, --collection site_a
#      (read-only), --ingest site_b and a result cache (--cache-mb)
#   2. reasoning queries (isa / lca / similar / expand) on BOTH collections,
#      version-stamped; bare paths must answer byte-identically to the
#      /v1/c/site_a/ prefix (site_a is the default collection), with the
#      second answer served from the cache; a repeated site_a men2ent must
#      report X-Cache: miss, then hit
#   3. ingest pages into site_b only, wait for apply + publish
#   4. isolation: site_b's version moved, site_a's did not — the new pages
#      are visible only under site_b, and site_a's cached men2ent still hits
#   5. SIGTERM: graceful drain must exit 0
#
# Usage: ci/collections_smoke.sh <path-to-cnprobase_serve>
set -euo pipefail

BIN=${1:?usage: collections_smoke.sh <path-to-cnprobase_serve>}
WORK=$(mktemp -d)
LOG="$WORK/collections.log"
PID=""
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

: >"$LOG"
"$BIN" --root "$WORK/root" --collection site_a --ingest site_b \
  --entities 500 --threads 2 --cache-mb 4 \
  --publish-min-pages 2 --publish-max-delay-ms 50 >"$LOG" 2>&1 &
PID=$!
for _ in $(seq 1 240); do
  grep -q "listening on" "$LOG" && break
  kill -0 "$PID" 2>/dev/null || { cat "$LOG"; echo "server died during startup" >&2; exit 1; }
  sleep 0.5
done
grep -q "listening on" "$LOG" || { cat "$LOG"; echo "server never started listening" >&2; exit 1; }
PORT=$(grep -o 'listening on http://127.0.0.1:[0-9]*' "$LOG" | grep -o '[0-9]*$')
BASE="http://127.0.0.1:$PORT"
echo "collections server on port $PORT"

# sample <collection> <field>: the printed per-collection query targets
# (fields: 4=entity 5=concept 6=ancestor 7=sibling).
sample() {
  grep -P "^sample\t$1\t" "$LOG" | head -1 | cut -f"$2"
}

# get <path> [--data-urlencode k=v ...]: prints "<code>\t<body>".
get() {
  local path=$1; shift
  curl -sS -G -w '\t%{http_code}' "$@" "$BASE$path"
}

# require <label> <expected-code> <body-must-contain> <path> [curl args...]
require() {
  local label=$1 code=$2 needle=$3 path=$4; shift 4
  local out body got
  out=$(get "$path" "$@")
  got=${out##*$'\t'}
  body=${out%$'\t'*}
  if [ "$got" != "$code" ]; then
    echo "FAIL $label: HTTP $got (want $code) — $body" >&2; exit 1
  fi
  case $body in
    *"$needle"*) : ;;
    *) echo "FAIL $label: body missing '$needle' — $body" >&2; exit 1 ;;
  esac
}

# xcache <path> [curl args...]: the response's X-Cache header (hit/miss).
xcache() {
  local path=$1; shift
  curl -sS -G -D - -o /dev/null "$@" "$BASE$path" \
    | { grep -i '^X-Cache:' || true; } | tr -d '[:space:]' | cut -d: -f2
}

# require_cache <label> <hit|miss> <path> [curl args...]
require_cache() {
  local label=$1 want=$2 path=$3; shift 3
  local got
  got=$(xcache "$path" "$@")
  [ "$got" = "$want" ] || { echo "FAIL $label: X-Cache '$got' (want $want)" >&2; exit 1; }
}

# version <collection>: the collection's current version stamp.
version() {
  get "/v1/c/$1" | sed -n 's/.*"version":\([0-9]*\).*/\1/p'
}

echo "phase 1: both collections registered"
require collections 200 '"name":"site_a"' /v1/collections
require collections 200 '"name":"site_b"' /v1/collections

echo "phase 2: reasoning queries on both collections"
for SITE in site_a site_b; do
  ENTITY=$(sample "$SITE" 4)
  CONCEPT=$(sample "$SITE" 5)
  ANCESTOR=$(sample "$SITE" 6)
  SIBLING=$(sample "$SITE" 7)
  [ -n "$ENTITY" ] && [ "$ENTITY" != "-" ] || { echo "FAIL: no sample for $SITE" >&2; exit 1; }
  require "$SITE isa parent" 200 '"isa":true' "/v1/c/$SITE/isa" \
    --data-urlencode "entity=$ENTITY" --data-urlencode "concept=$CONCEPT"
  require "$SITE isa ancestor" 200 '"isa":true' "/v1/c/$SITE/isa" \
    --data-urlencode "entity=$ENTITY" --data-urlencode "concept=$ANCESTOR"
  require "$SITE lca" 200 '"found":true' "/v1/c/$SITE/lca" \
    --data-urlencode "a=$ENTITY" --data-urlencode "b=$SIBLING"
  require "$SITE similar" 200 '"results":' "/v1/c/$SITE/similar" \
    --data-urlencode "entity=$ENTITY"
  require "$SITE expand" 200 '"children":' "/v1/c/$SITE/expand" \
    --data-urlencode "concept=$CONCEPT"
  # Every reasoning answer is version-stamped from the pinned snapshot.
  STAMP=$(curl -sS -G -D - -o /dev/null "$BASE/v1/c/$SITE/isa" \
    --data-urlencode "entity=$ENTITY" --data-urlencode "concept=$CONCEPT" \
    | { grep -i '^X-Taxonomy-Version:' || true; } | tr -d '[:space:]' | cut -d: -f2)
  [ -n "$STAMP" ] || { echo "FAIL: $SITE isa has no version stamp" >&2; exit 1; }
done

echo "phase 3: bare paths == /v1/c/site_a/ prefix (default collection), cached"
ENTITY=$(sample site_a 4)
CONCEPT=$(sample site_a 5)
BARE=$(get /v1/isa --data-urlencode "entity=$ENTITY" --data-urlencode "concept=$CONCEPT")
PREFIXED=$(get /v1/c/site_a/isa --data-urlencode "entity=$ENTITY" --data-urlencode "concept=$CONCEPT")
if [ "$BARE" != "$PREFIXED" ]; then
  echo "FAIL: bare and prefixed default answers differ" >&2
  echo "  bare:     $BARE" >&2
  echo "  prefixed: $PREFIXED" >&2
  exit 1
fi
MENTION=$(sample site_a 3)
require_cache "site_a men2ent first" miss /v1/c/site_a/men2ent \
  --data-urlencode "mention=$MENTION"
require_cache "site_a men2ent repeat" hit /v1/c/site_a/men2ent \
  --data-urlencode "mention=$MENTION"

A_BEFORE=$(version site_a)
B_BEFORE=$(version site_b)
echo "phase 4: ingest into site_b only (site_a v$A_BEFORE, site_b v$B_BEFORE)"
BODY=$(printf 'u\tsmoke_x1\tsmoke_x1\t\t\t\tsmoke_cat\nu\tsmoke_x2\tsmoke_x2\t\t\t\tsmoke_cat\n')
OUT=$(curl -sS -w '\n%{http_code}' --data-binary "$BODY" "$BASE/v1/c/site_b/ingest")
CODE=${OUT##*$'\n'}
[ "$CODE" = 200 ] || { echo "FAIL ingest: HTTP $CODE — $OUT" >&2; exit 1; }
case $OUT in
  *'"accepted":2'*) : ;;
  *) echo "FAIL ingest: expected 2 accepted — $OUT" >&2; exit 1 ;;
esac

for _ in $(seq 1 120); do
  OUT=$(get /v1/c/site_b/getEntity --data-urlencode "concept=smoke_cat")
  case $OUT in *smoke_x1*smoke_x2*) break ;; esac
  sleep 0.25
done
case $OUT in
  *smoke_x1*smoke_x2*) : ;;
  *) echo "FAIL: ingested pages never published into site_b — $OUT" >&2; exit 1 ;;
esac

echo "phase 5: isolation — site_a untouched"
A_AFTER=$(version site_a)
B_AFTER=$(version site_b)
[ "$A_AFTER" = "$A_BEFORE" ] || { echo "FAIL: site_a version moved $A_BEFORE -> $A_AFTER" >&2; exit 1; }
[ "$B_AFTER" -gt "$B_BEFORE" ] || { echo "FAIL: site_b version never advanced ($B_BEFORE -> $B_AFTER)" >&2; exit 1; }
require "site_a isolation" 404 'unknown entity' /v1/c/site_a/isa \
  --data-urlencode "entity=smoke_x1" --data-urlencode "concept=smoke_cat"
require "site_b reasoning over ingested page" 200 '"isa":true' /v1/c/site_b/isa \
  --data-urlencode "entity=smoke_x1" --data-urlencode "concept=smoke_cat"
# site_b's publish left site_a's version, and so its cache entries, intact.
require_cache "site_a men2ent after site_b ingest" hit /v1/c/site_a/men2ent \
  --data-urlencode "mention=$MENTION"

echo "phase 6: SIGTERM drain"
kill -TERM "$PID"
for _ in $(seq 1 240); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.25
done
if kill -0 "$PID" 2>/dev/null; then
  echo "FAIL: server did not exit after SIGTERM" >&2; exit 1
fi
wait "$PID" && RC=0 || RC=$?
[ "$RC" = 0 ] || { cat "$LOG"; echo "FAIL: drain exited $RC" >&2; exit 1; }
grep -q "drained:" "$LOG" || { cat "$LOG"; echo "FAIL: no drain line" >&2; exit 1; }
echo "PASS: collections smoke (site_a v$A_AFTER stable, site_b v$B_BEFORE -> v$B_AFTER)"
