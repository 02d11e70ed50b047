#!/bin/sh
# Serve daemon smoke: start the daemon on a Unix socket, hit it with
# two concurrent clients running different families (each differential-
# checked against the in-process oracle), require a warm-cache speedup
# on a repeated node-weighted-Steiner verify, then SIGTERM it under a
# normal workload and require a clean drain: exit 0, "draining" then
# "stopped" in the log, and no orphaned socket file.
#
# Usage: scripts/check_serve.sh HARDNESS_EXE
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 HARDNESS_EXE" >&2
  exit 2
fi
exe=$1

work=$(mktemp -d "${TMPDIR:-/tmp}/check_serve.XXXXXX")
sock="$work/serve.sock"
daemon_pid=
cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

"$exe" serve --socket "$sock" --store "$work/store" \
  --obs-out "$work/serve.jsonl" > "$work/serve.log" 2>&1 &
daemon_pid=$!

# Wait for the daemon to bind its socket (up to 5s).
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: daemon never bound $sock" >&2
    cat "$work/serve.log" >&2
    exit 1
  fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "FAIL: daemon exited before binding" >&2
    cat "$work/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

# Two concurrent clients, different families, every served verdict
# stream bit-identical to the in-process oracle.
"$exe" client verify mds -k 2 --exhaustive --incremental --socket "$sock" \
  --check-oracle > "$work/c1.log" 2>&1 &
c1=$!
"$exe" client verify maxis -k 2 --exhaustive --incremental --socket "$sock" \
  --check-oracle > "$work/c2.log" 2>&1 &
c2=$!
wait "$c1" || { echo "FAIL: concurrent client 1 (mds)" >&2; cat "$work/c1.log" >&2; exit 1; }
wait "$c2" || { echo "FAIL: concurrent client 2 (maxis)" >&2; cat "$work/c2.log" >&2; exit 1; }
grep -q 'oracle differential: ok' "$work/c1.log" || { echo "FAIL: mds stream differs from the oracle" >&2; cat "$work/c1.log" >&2; exit 1; }
grep -q 'oracle differential: ok' "$work/c2.log" || { echo "FAIL: maxis stream differs from the oracle" >&2; cat "$work/c2.log" >&2; exit 1; }

# A mixed batch of the remaining ops against the same daemon.  Each
# `client OP` takes `hardness OP`'s arguments.
"$exe" client catalog --socket "$sock" > /dev/null
"$exe" client stats --socket "$sock" > /dev/null
"$exe" client sweep-status mds -k 2 --shards 1 --socket "$sock" > /dev/null

# A reduction answers with one row per swept pair.
out=$("$exe" client reduction mds -k 2 --pairs 2 --socket "$sock")
pairs=$(echo "$out" | sed -n 's/.*"pairs": \([0-9]*\).*/\1/p')
rows=$(echo "$out" | grep -o '"oracle_ok"' | wc -l)
if [ -z "$pairs" ] || [ "$rows" -ne "$pairs" ]; then
  echo "FAIL: reduction payload has $rows rows for pairs=$pairs" >&2
  echo "$out" >&2
  exit 1
fi

# Concurrent connections that each repeat: every response is printed,
# and the first connection reports its warm speedup.
out=$("$exe" client verify mds -k 2 --exhaustive --incremental \
  --socket "$sock" --bench 2 --repeat 3)
ids=$(echo "$out" | grep -c '^id=' || true)
if [ "$ids" -ne 6 ] || ! echo "$out" | grep -q '^warm_speedup='; then
  echo "FAIL: --bench 2 --repeat 3 printed $ids responses, expected 6 and a warm_speedup line" >&2
  echo "$out" >&2
  exit 1
fi

# A status query reads the store: for a plan that was never run it
# reports zeros and creates no plan directory.
before=$(ls "$work/store" | wc -l)
"$exe" client sweep-status mds -k 2 --shards 5 --socket "$sock" > /dev/null
after=$(ls "$work/store" | wc -l)
if [ "$after" -ne "$before" ]; then
  echo "FAIL: sweep-status created a plan directory ($before -> $after)" >&2
  ls "$work/store" >&2
  exit 1
fi

# Repeated node-weighted-Steiner verify — the family no earlier request
# touched, so the first service is genuinely cold: the repeats must be
# served from the warm registry, measurably faster.
out=$("$exe" client verify steiner-node-weighted -k 2 --exhaustive \
  --incremental --socket "$sock" --repeat 6 --check-oracle)
echo "$out" | grep -q 'warm=true' || {
  echo "FAIL: repeated verify never hit the warm registry" >&2
  echo "$out" >&2
  exit 1
}
speedup=$(echo "$out" | sed -n 's/^warm_speedup=//p')
[ -n "$speedup" ] || { echo "FAIL: no warm_speedup in client output" >&2; exit 1; }
awk "BEGIN { exit !($speedup >= 2.0) }" || {
  echo "FAIL: warm speedup $speedup < 2.0" >&2
  echo "$out" >&2
  exit 1
}

# The telemetry sink streamed per-request events.
grep -q 'serve_request' "$work/serve.jsonl" || {
  echo "FAIL: no serve_request events in --obs-out stream" >&2
  exit 1
}

# Graceful SIGTERM drain: exit 0, drain messages logged, socket gone.
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: daemon exited $rc on SIGTERM, expected 0" >&2
  cat "$work/serve.log" >&2
  exit 1
fi
grep -q 'draining' "$work/serve.log" || { echo "FAIL: no drain message in daemon log" >&2; cat "$work/serve.log" >&2; exit 1; }
grep -q 'stopped' "$work/serve.log" || { echo "FAIL: no stop message in daemon log" >&2; cat "$work/serve.log" >&2; exit 1; }
if [ -e "$sock" ]; then
  echo "FAIL: socket file $sock orphaned after drain" >&2
  exit 1
fi

echo "serve smoke ok: concurrent oracle differentials, warm speedup ${speedup}x, clean SIGTERM drain"
