#!/usr/bin/env bash
# Serve-mode smoke: start `mcfuser serve` on a Unix socket, check that a
# repeated chain is a store hit (memo_hits in `fuse --connect --stats`),
# hammer it with concurrent client fuse requests, SIGTERM it mid-flood,
# and assert (a) the drain exits 0 and (b) the EngineStats accounting
# identity (submitted == completed + rejected + cancelled +
# deadline_exceeded) survived — the server's --json exit report carries
# the verdict.  Both JSON documents are parsed with python3, so a
# malformed one fails too.
#
# Usage: serve_smoke.sh /path/to/mcfuser
# Runs under ctest (tools_serve_smoke) in the Release and sanitizer CI
# lanes; everything is sim-backend, no toolchain needed.
set -u

# Succeeds when stdin parses as JSON and the python expression $1 over
# the parsed document `d` is true.
json_true() {
  python3 -c 'import json, sys; d = json.load(sys.stdin); sys.exit(0 if eval(sys.argv[1]) else 1)' "$1"
}

BIN="${1:?usage: serve_smoke.sh /path/to/mcfuser}"
SOCK="$(mktemp -u /tmp/mcf-smoke-XXXXXX).sock"
OUT="$(mktemp /tmp/mcf-smoke-XXXXXX.json)"

cleanup() {
  [ -n "${SERVER:-}" ] && kill -9 "$SERVER" 2>/dev/null
  rm -f "$SOCK" "$OUT"
}
trap cleanup EXIT

"$BIN" serve --socket "$SOCK" --backend sim --json >"$OUT" 2>/dev/null &
SERVER=$!

# Wait for the listener (the socket file appears once bound).
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER" 2>/dev/null || { echo "FAIL: server died before binding"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server never bound $SOCK"; exit 1; }

# One chain twice: the second request must be a store hit.
for _ in 1 2; do "$BIN" fuse --connect "$SOCK" --m 64 --n 64 --k 32 --h 32 >/dev/null 2>&1; done
STATS="$("$BIN" fuse --connect "$SOCK" --stats)"
printf '%s' "$STATS" | json_true 'd["engine"]["memo_hits"] >= 1' ||
  { echo "FAIL: a repeated chain was not answered from the store: $STATS"; exit 1; }

# Concurrent flood: client failures are expected once the drain begins
# (that is the point); only the server's own verdict matters.
CLIENT_PIDS=""
for c in 1 2 3 4; do
  (
    for r in 1 2 3; do
      "$BIN" fuse --connect "$SOCK" --m 128 --n 96 --k 64 --h 64 \
        >/dev/null 2>&1 || true
    done
  ) &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done

# SIGTERM lands mid-flood; the server must stop accepting, resolve
# in-flight work, and exit by itself.
sleep 0.7
kill -TERM "$SERVER"
wait "$SERVER"
CODE=$?
SERVER=""
for pid in $CLIENT_PIDS; do wait "$pid" 2>/dev/null; done

if [ "$CODE" -ne 0 ]; then
  echo "FAIL: serve drain exited $CODE"
  cat "$OUT"
  exit 1
fi
if ! json_true 'd["identity_ok"] is True' <"$OUT"; then
  echo "FAIL: accounting identity broken after drain"
  cat "$OUT"
  exit 1
fi
if [ -S "$SOCK" ]; then
  echo "FAIL: socket file not removed on drain"
  exit 1
fi
echo "serve smoke ok: $(cat "$OUT")"
