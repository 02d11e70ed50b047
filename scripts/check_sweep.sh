#!/bin/sh
# Sweep-engine crash/recovery smoke: run a small sharded sweep to get
# the one-shot digest, kill a store-backed sweep mid-flight with fault
# injection, resume it, and require that the resumed run recomputes
# nothing and reproduces the one-shot digest bit-for-bit (checked again
# against the in-process oracle via --check-oracle).
#
# Usage: scripts/check_sweep.sh HARDNESS_EXE
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 HARDNESS_EXE" >&2
  exit 2
fi
exe=$1

store=$(mktemp -d "${TMPDIR:-/tmp}/check_sweep.XXXXXX")
trap 'rm -rf "$store"' EXIT INT TERM

# One-shot scratch sweep: the reference digest, cross-checked against
# Framework.exhaustive_verdicts in-process.
scratch=$("$exe" sweep mds -k 2 --shards 6 --check-oracle)
echo "$scratch" | grep -q 'oracle differential: ok' || {
  echo "FAIL: scratch sweep disagrees with the oracle" >&2
  echo "$scratch" >&2
  exit 1
}
digest=$(echo "$scratch" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
[ -n "$digest" ] || { echo "FAIL: no digest in scratch output" >&2; exit 1; }

# Interrupted store-backed sweep: the fault trips after 2 shards, so the
# run must exit 3 (interrupted) and leave exactly 2 resumable blocks.
rc=0
"$exe" sweep mds -k 2 --shards 6 --resume "$store" --fault-after 2 || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "FAIL: faulted sweep exited $rc, expected 3" >&2
  exit 1
fi
blocks=$(find "$store" -name 'shard-*.blk' | wc -l)
if [ "$blocks" -ne 2 ]; then
  echo "FAIL: $blocks blocks persisted before the crash, expected 2" >&2
  exit 1
fi

# Resume: the stored shards are reused as-is, nothing is recomputed, and
# the merged stream matches both the oracle and the one-shot digest.
out=$("$exe" sweep mds -k 2 --shards 6 --resume "$store" --check-oracle)
echo "$out"
fail=0
echo "$out" | grep -q 'resumed=2'                  || { echo "FAIL: resume did not reuse 2 stored shards" >&2; fail=1; }
echo "$out" | grep -q 'recomputed=0'               || { echo "FAIL: resume recomputed stored work" >&2; fail=1; }
echo "$out" | grep -q 'corrupt=0'                  || { echo "FAIL: store corruption reported on clean resume" >&2; fail=1; }
echo "$out" | grep -q "digest $digest"             || { echo "FAIL: resumed digest differs from one-shot digest $digest" >&2; fail=1; }
echo "$out" | grep -q 'oracle differential: ok'    || { echo "FAIL: resumed sweep disagrees with the oracle" >&2; fail=1; }

[ "$fail" -eq 0 ] && echo "sweep smoke ok: crash after 2/6 shards, resume bit-identical ($digest)"
exit "$fail"
