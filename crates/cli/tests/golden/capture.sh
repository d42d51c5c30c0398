#!/usr/bin/env bash
# Regenerates the golden fixtures from a given `rsq` binary — the one
# built from the commit whose output is the reference:
#
#   crates/cli/tests/golden/capture.sh /path/to/reference/rsq
#
# Writes <name>.stdout, <name>.stderr and (for @METRICS cases)
# <name>.metrics next to cases.tsv, and fails if an exit code differs
# from the table.
set -euo pipefail
rsq="$(realpath "$1")"
cd "$(dirname "$0")"
scratch="$(mktemp)"
trap 'rm -f "$scratch"' EXIT
grep -v '^#' cases.tsv | while IFS=$'\t' read -r name exit stdin args; do
  [ "$stdin" = "-" ] && stdin=/dev/null
  : > "$scratch"
  status=0
  # shellcheck disable=SC2086  # args are split on spaces by design
  "$rsq" ${args//@METRICS/$scratch} \
    < "$stdin" > "$name.stdout" 2> "$name.stderr" || status=$?
  [ "$status" -eq "$exit" ] || { echo "$name: exit $status, table says $exit" >&2; exit 1; }
  case "$args" in *@METRICS*) cp "$scratch" "$name.metrics" ;; esac
done
