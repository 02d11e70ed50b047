#!/bin/sh
# Observability smoke: start the daemon with the report sampler on,
# scrape the metrics op and the HTTP GET surface, lint the exposition
# grammar, send a traced request with a client-side capture, join the
# two JSONL streams into one span tree with `hardness profile --from`,
# smoke `hardness top`, and check that `hardness bench-diff` flags an
# injected >= 25% pairs/sec regression while passing identical files.
#
# Usage: scripts/check_metrics.sh HARDNESS_EXE
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 HARDNESS_EXE" >&2
  exit 2
fi
exe=$1

work=$(mktemp -d "${TMPDIR:-/tmp}/check_metrics.XXXXXX")
sock="$work/serve.sock"
daemon_pid=
cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

"$exe" serve --socket "$sock" --store "$work/store" --sample-period 0.2 \
  --obs-out "$work/server.jsonl" > "$work/serve.log" 2>&1 &
daemon_pid=$!

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

# Traffic so the op histograms and cache counters have something in
# them, plus a traced request captured client-side for the join below.
"$exe" client verify mds -k 2 --exhaustive --incremental --socket "$sock" \
  > /dev/null
"$exe" client verify mds -k 2 --exhaustive --incremental --socket "$sock" \
  --trace-id t-ci-1 --obs-out "$work/client.jsonl" > /dev/null
sleep 0.5  # at least two sampler ticks, so windowed quantiles resolve

# --- metrics op: exposition grammar and required families ---
"$exe" client metrics --socket "$sock" > "$work/metrics.txt"
bad=$(grep -v '^#' "$work/metrics.txt" | grep -v '^$' \
  | grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf|nan)?$' \
  || true)
if [ "$bad" -ne 0 ]; then
  echo "FAIL: $bad exposition lines violate the metric-line grammar" >&2
  grep -v '^#' "$work/metrics.txt" \
    | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf|nan)?$' >&2
  exit 1
fi
for want in \
  '# TYPE ch_serve_requests counter' \
  'ch_serve_op_verify_us{quantile="0.5"}' \
  'ch_serve_queue_wait_us{quantile="0.99"}' \
  'ch_serve_workers ' \
  'ch_cache_hit_rate{kind="'; do
  grep -qF "$want" "$work/metrics.txt" || {
    echo "FAIL: metrics output missing: $want" >&2
    cat "$work/metrics.txt" >&2
    exit 1
  }
done

# --- health op ---
"$exe" client health --socket "$sock" > "$work/health.txt"
grep -q '"status"[[:space:]]*:[[:space:]]*"ok"' "$work/health.txt" || {
  echo "FAIL: health op did not answer status ok" >&2
  cat "$work/health.txt" >&2
  exit 1
}

# --- HTTP GET on the same socket (curl if present, else python3) ---
http_get() {
  path=$1
  if command -v curl >/dev/null 2>&1; then
    curl -s --unix-socket "$sock" "http://localhost$path"
  else
    python3 - "$sock" "$path" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(("GET %s HTTP/1.0\r\nHost: x\r\n\r\n" % sys.argv[2]).encode())
buf = b""
while True:
    c = s.recv(65536)
    if not c:
        break
    buf += c
sys.stdout.write(buf.split(b"\r\n\r\n", 1)[1].decode())
EOF
  fi
}
if command -v curl >/dev/null 2>&1 || command -v python3 >/dev/null 2>&1; then
  http_get /metrics > "$work/http_metrics.txt"
  grep -q '^ch_serve_requests ' "$work/http_metrics.txt" || {
    echo "FAIL: HTTP GET /metrics did not return the exposition" >&2
    cat "$work/http_metrics.txt" >&2
    exit 1
  }
  [ "$(http_get /health)" = "ok" ] || {
    echo "FAIL: HTTP GET /health did not answer ok" >&2
    exit 1
  }
else
  echo "skip: neither curl nor python3 available for the HTTP GET check" >&2
fi

# --- hardness top, one plain refresh ---
"$exe" top --socket "$sock" --iters 1 --plain > "$work/top.txt"
grep -q 'queue wait' "$work/top.txt" || {
  echo "FAIL: hardness top rendered no queue-wait line" >&2
  cat "$work/top.txt" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: daemon exited non-zero" >&2; exit 1; }
daemon_pid=

# --- cross-process trace join: client + server JSONL -> one tree ---
cat "$work/client.jsonl" "$work/server.jsonl" > "$work/joined.jsonl"
"$exe" profile --from "$work/joined.jsonl" > "$work/profile.txt"
for span in client_request serve_request; do
  grep -q "$span" "$work/profile.txt" || {
    echo "FAIL: joined profile is missing the $span span" >&2
    cat "$work/profile.txt" >&2
    exit 1
  }
done
# the daemon's span must sit *inside* the client's: deeper indentation
ci=$(grep 'client_request' "$work/profile.txt" | head -1 \
  | sed 's/[^ ].*//' | wc -c)
si=$(grep 'serve_request' "$work/profile.txt" | head -1 \
  | sed 's/[^ ].*//' | wc -c)
if [ "$si" -le "$ci" ]; then
  echo "FAIL: serve_request not nested under client_request in the joined tree" >&2
  cat "$work/profile.txt" >&2
  exit 1
fi

# --- bench-diff: identical files pass, injected regression fails ---
cat > "$work/old.json" <<'EOF'
{"timestamp": "2026-01-01T00:00:00Z", "jobs": 2,
 "verify": [{"family": "mds-k2", "pairs_per_s": 1000.0, "solver_nodes": 500,
             "cache_hits": 90, "cache_misses": 10}],
 "serve": [{"name": "steiner-warm", "warm_speedup": 8.0}]}
EOF
sed 's/"pairs_per_s": 1000.0/"pairs_per_s": 700.0/' "$work/old.json" \
  > "$work/slow.json"
"$exe" bench-diff "$work/old.json" "$work/old.json" > /dev/null || {
  echo "FAIL: bench-diff flagged identical files" >&2
  exit 1
}
rc=0
"$exe" bench-diff "$work/old.json" "$work/slow.json" \
  > "$work/diff.txt" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: bench-diff exited $rc on a 30% pairs/sec drop, expected 1" >&2
  cat "$work/diff.txt" >&2
  exit 1
fi
grep -q 'REGRESSION' "$work/diff.txt" || {
  echo "FAIL: bench-diff exit 1 without a REGRESSION line" >&2
  cat "$work/diff.txt" >&2
  exit 1
}

echo "metrics smoke ok: exposition lint, health, HTTP GET, joined trace tree, top, bench-diff gate"
