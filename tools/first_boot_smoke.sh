#!/usr/bin/env bash
# first_boot_smoke.sh — a first boot killed before its genesis checkpoint
# commits must load genesis again on restart and serve the state a clean
# first boot serves.
#
#   tools/first_boot_smoke.sh /path/to/harmonyd
#
# Boots one node cleanly and another with HARMONY_CRASH armed at
# storage.checkpoint.after_journal (the genesis checkpoint's journal is
# written, its pages and manifest are not), restarts the crashed node, and
# compares the `state_digest=` lines both print at shutdown.
#
# Registered as the first_boot_smoke ctest.
set -euo pipefail

HARMONYD=${1:?usage: first_boot_smoke.sh /path/to/harmonyd}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/first_boot_smoke.XXXXXX")
PID=
cleanup() {
  if [ -n "$PID" ]; then kill -9 "$PID" 2>/dev/null || true; fi
  rm -rf "$TMP"
}
trap cleanup EXIT

# serve DIR NAME: serves DIR on an ephemeral port until it reports serving,
# stops it with SIGTERM, and leaves its state digest in $DIGEST.
serve() {
  local dir=$1 log="$TMP/$2.log"
  "$HARMONYD" serve --dir "$dir" --port 0 >"$log" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    grep -q '^harmonyd: serving' "$log" && break
    sleep 0.1
  done
  if ! grep -q '^harmonyd: serving' "$log"; then
    echo "FAIL: $2 never served" >&2
    cat "$log" >&2
    exit 1
  fi
  kill -TERM "$PID"
  wait "$PID"
  PID=
  DIGEST=$(sed -n 's/^state_digest=\([0-9a-f]*\).*/\1/p' "$log" | tail -1)
  if [ -z "$DIGEST" ]; then
    echo "FAIL: $2 printed no state digest" >&2
    cat "$log" >&2
    exit 1
  fi
}

echo "== clean first boot"
serve "$TMP/clean" clean
CLEAN=$DIGEST

echo "== first boot killed after the genesis journal"
status=0
HARMONY_CRASH=storage.checkpoint.after_journal:1 \
  "$HARMONYD" serve --dir "$TMP/crashed" --port 0 >"$TMP/crash.log" 2>&1 ||
  status=$?
if [ "$status" -ne 137 ] || [ ! -e "$TMP/crashed/replica.journal" ] ||
   [ -e "$TMP/crashed/replica.ckpt" ]; then
  echo "FAIL: expected a SIGKILL after the genesis journal (exit $status)" >&2
  ls -l "$TMP/crashed" >&2 || true
  cat "$TMP/crash.log" >&2
  exit 1
fi

echo "== restart the crashed node"
serve "$TMP/crashed" restarted
RESTARTED=$DIGEST

echo "clean:     $CLEAN"
echo "restarted: $RESTARTED"
if [ "$CLEAN" != "$RESTARTED" ]; then
  echo "FAIL: the restarted first boot serves a different state" >&2
  exit 1
fi
echo "first_boot_smoke: OK"
