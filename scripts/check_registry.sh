#!/bin/sh
# Registration guard: every lib/lbgraphs module that exports lower-bound
# families (Framework.t) or incremental descriptors must be reflected in
# the registry catalog (`hardness list --json`).  Catches the "new family
# compiled but never registered" drift the old hand-wired consumer lists
# allowed.  It also refuses a hand-written patcher (an exported
# `apply_inputs`, `build_core` or core type): a construction declares
# its input encoding and Framework derives the rest.
#
# Usage: scripts/check_registry.sh [catalog.json]
# With no argument the catalog is produced by `dune exec bin/hardness.exe`.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
  catalog=$(cat "$1")
else
  catalog=$(dune exec bin/hardness.exe -- list --json)
fi

fail=0
for mli in lib/lbgraphs/*.mli; do
  base=$(basename "$mli" .mli)
  # the aggregation point itself is not a construction module
  [ "$base" = "families" ] && continue
  modname=$(printf '%s' "$base" | awk '{ print toupper(substr($0,1,1)) substr($0,2) }')

  exports_family=false
  grep -q 'Framework\.t' "$mli" && exports_family=true
  exports_specs=false
  grep -q 'Registry\.spec list' "$mli" && exports_specs=true
  exports_inc=false
  grep -q 'Framework\.incremental' "$mli" && exports_inc=true

  patcher=$(grep -oE '^(val (apply_[a-z_]*inputs|build_([a-z_]*_)?core)|type ([a-z_]*_)?core)\b' "$mli" || true)
  if [ -n "$patcher" ]; then
    echo "FAIL: $modname ($mli) exports $(printf '%s' "$patcher" | tr '\n' ',' | sed 's/,$//; s/,/, /g')" \
      "— declare the input encoding instead (Framework.family ~core ~x ~y);" \
      "Framework derives the build, the patcher and the cache ~extra lists" >&2
    fail=1
  fi
  if $exports_family && ! $exports_specs; then
    echo "FAIL: $mli exports families (Framework.t) but no registry specs" \
      "(add: val specs : Ch_core.Registry.spec list)" >&2
    fail=1
  fi
  if $exports_specs && ! printf '%s' "$catalog" | grep -q "\"origin\": \"$modname\""; then
    echo "FAIL: $mli exports registry specs but \"$modname\" is not an origin" \
      "in the catalog — append ${modname}.specs to Families.all" >&2
    fail=1
  fi
  if $exports_inc && ! printf '%s' "$catalog" \
      | grep -q "\"origin\": \"$modname\".*\"incremental\": true"; then
    echo "FAIL: $mli exports an incremental descriptor but no catalog entry" \
      "from $modname has \"incremental\": true" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "registry guard ok: every lib/lbgraphs export is registered"
fi
exit "$fail"
