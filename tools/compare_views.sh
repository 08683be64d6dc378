#!/usr/bin/env bash
# Compares the explanation views two gvex_cli builds produce, byte for byte.
#
#   tools/compare_views.sh OLD_CLI NEW_CLI [WORK_DIR]
#
# For each Table-3 dataset (MUT RED ENZ MAL PCQ PRO SYN) it generates the
# database at its default size and trains a classifier with OLD_CLI. Then
# both binaries run `explain` on every case: algorithm ag|sg x engine
# levelwise|gspan x label 0|1, with u_l 15 and 5-node patterns, 56 cases.
# A case is `same` when the saved views, the standard output and the exit
# status agree; the "saved view to" line, which names each binary's own
# output file, is left out of the comparison. Prints one row per case and
# exits 1 on any difference. WORK_DIR (default: a fresh temporary
# directory) keeps the databases, models, views and outputs.

set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 OLD_CLI NEW_CLI [WORK_DIR]" >&2
  exit 2
fi
old_cli=$(realpath "$1")
new_cli=$(realpath "$2")
work=${3:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"

# Runs one explain case with one binary; leaves <tag>.out and <tag>.views.
run_case() {
  local cli=$1 tag=$2 data=$3 algo=$4 engine=$5 label=$6
  local rc=0
  "$cli" explain --graphs "$data.graphs" --model "$data.model" \
    --label "$label" --algo "$algo" --engine "$engine" --ul 15 \
    --pattern-nodes 5 --out "$tag.views" > "$tag.raw" 2>&1 || rc=$?
  { grep -v '^saved view to ' "$tag.raw" || true; echo "exit $rc"; } \
    > "$tag.out"
  [[ -f "$tag.views" ]] || : > "$tag.views"
}

cases=0
diffs=0
printf '%-4s %-3s %-10s %-5s %s\n' dataset algo engine label result
for data in MUT RED ENZ MAL PCQ PRO SYN; do
  "$old_cli" generate --dataset "$data" --out "$data.graphs" > /dev/null
  "$old_cli" train --graphs "$data.graphs" --epochs 40 \
    --out "$data.model" > /dev/null
  for algo in ag sg; do
    for engine in levelwise gspan; do
      for label in 0 1; do
        case_id="$data.$algo.$engine.$label"
        rm -f "$case_id".{old,new}.views
        run_case "$old_cli" "$case_id.old" "$data" "$algo" "$engine" "$label"
        run_case "$new_cli" "$case_id.new" "$data" "$algo" "$engine" "$label"
        result=same
        if ! cmp -s "$case_id.old.views" "$case_id.new.views" ||
           ! cmp -s "$case_id.old.out" "$case_id.new.out"; then
          result=DIFFERENT
          diffs=$((diffs + 1))
        fi
        cases=$((cases + 1))
        printf '%-4s %-3s %-10s %-5s %s\n' \
          "$data" "$algo" "$engine" "$label" "$result"
      done
    done
  done
done

echo "$cases cases, $diffs different (outputs in $work)"
[[ $diffs -eq 0 ]]
