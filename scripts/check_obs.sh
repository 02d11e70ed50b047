#!/bin/sh
# Telemetry stream guard: validate a JSONL file produced by
# `hardness ... --profile --obs-out FILE` (or any Obs sink).  Every line
# must parse as JSON (strictly, UTF-8 included: `hardness profile
# --from` names the first bad FILE:LINE), be one object carrying an
# event discriminator ("ev" for span events, "type" for reduction trace
# events), and the span stream must be balanced: every span_open
# matched by a span_close.
#
# Usage: scripts/check_obs.sh HARDNESS_EXE FILE.jsonl
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 HARDNESS_EXE FILE.jsonl" >&2
  exit 2
fi
exe=$1
file=$2

[ -s "$file" ] || { echo "FAIL: $file is missing or empty" >&2; exit 1; }

fail=0
lineno=0
opens=0
closes=0
while IFS= read -r line || [ -n "$line" ]; do
  lineno=$((lineno + 1))
  case $line in
    {*}) ;;
    *)
      echo "FAIL: $file:$lineno is not a JSON object: $line" >&2
      fail=1
      continue
      ;;
  esac
  case $line in
    *'"ev"'*|*'"type"'*) ;;
    *)
      echo "FAIL: $file:$lineno has neither \"ev\" nor \"type\": $line" >&2
      fail=1
      ;;
  esac
  case $line in
    *'"ev": "span_open"'*) opens=$((opens + 1)) ;;
    *'"ev": "span_close"'*) closes=$((closes + 1)) ;;
  esac
done < "$file"

if [ "$opens" -ne "$closes" ]; then
  echo "FAIL: $file has $opens span_open but $closes span_close events" >&2
  fail=1
fi

# every line must parse as JSON; the span tree must rebuild from it
"$exe" profile --from "$file" > /dev/null || fail=1

if [ "$fail" -eq 0 ]; then
  echo "obs stream ok: $lineno events, $opens spans balanced"
fi
exit "$fail"
