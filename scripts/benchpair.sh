#!/usr/bin/env bash
# benchpair.sh — alternating parent/change runs of one benchmark workload.
#
# Usage: scripts/benchpair.sh <parent-ref> <workload> [pairs=10]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git, so a killed run leaves no worktree behind), then runs
#   bash bench/run.sh --workload W --seed 1 --seconds 12 --trace 0
# once on the parent and once on the working tree per pair, swapping which
# side goes first each pair, and prints for every end-to-end metric both
# sides' median and quartiles and how many pairs the change won. A gain is
# claimed only at >= 9 wins in 10 and a median difference larger than the
# parent's own quartile spread (bench/README.md); this script prints the
# numbers, it does not judge them.
#
# It reads the benchmark's final JSON line and BENCHMARK.json's "better"
# directions; it changes nothing under bench/. Each side builds into its own
# .bench_build/, so the two never share a binary or a build cache.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: scripts/benchpair.sh <parent-ref> <workload> [pairs=10]" >&2
  exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_ref" | tar -x -C "$tmp/parent"

# run <dir> <side>: one benchmark run in <dir>; its "metric value" pairs, one
# a line, are appended to $tmp/<side>.<pair>.
run() {
  local line
  line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed 1 --seconds 12 --trace 0 | tail -n 1)
  {
    grep -o '"failed":[0-9]*' <<<"$line" | sed 's/"failed":/failed /'
    sed 's/.*"metrics"://' <<<"$line" |
      grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
      sed 's/"\([^"]*\)":{"value":/\1 /'
  } >"$tmp/$2.$pair"
}

for ((pair = 1; pair <= pairs; pair++)); do
  echo "pair $pair/$pairs" >&2
  if ((pair % 2)); then
    run "$tmp/parent" parent
    run "$PWD" change
  else
    run "$PWD" change
    run "$tmp/parent" parent
  fi
done

# "name better" for every end-to-end metric, in BENCHMARK.json's order.
awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
     on && /"name"/   {gsub(/[",]/, ""); name = $2}
     on && /"better"/ {gsub(/[",]/, ""); print name, $2}' BENCHMARK.json >"$tmp/better"

echo "workload $workload: $pairs pairs, parent $(git rev-parse --short "$parent_ref") vs working tree"
awk -v pairs="$pairs" -v tmp="$tmp" '
  function quantile(v, n, p,    pos, lo, frac) {  # linear interpolation between order statistics
    pos = (n - 1) * p; lo = int(pos); frac = pos - lo
    return lo + 1 < n ? v[lo + 1] * (1 - frac) + v[lo + 2] * frac : v[n]
  }
  function summary(side, name,    i, j, n, v, x) {
    for (n = 0; n < pairs; n++) {  # insertion sort
      x = val[side, name, n + 1] + 0
      for (j = n; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    return sprintf("%.4g [%.4g, %.4g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
  }
  BEGIN {
    for (i = 1; i <= pairs; i++) {
      for (s = 0; s < 2; s++) {
        side = s ? "change" : "parent"
        file = tmp "/" side "." i
        while ((getline line < file) > 0) { split(line, f, " "); val[side, f[1], i] = f[2] }
        close(file)
        failed[side] += val[side, "failed", i]
      }
    }
    printf "%-18s %-6s %-30s %-30s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change wins"
    while ((getline line < (tmp "/better")) > 0) {
      split(line, f, " "); name = f[1]; better = f[2]; wins = ties = 0
      for (i = 1; i <= pairs; i++) {
        p = val["parent", name, i] + 0; c = val["change", name, i] + 0
        if (c == p) ties++
        else if ((better == "lower") == (c < p)) wins++
      }
      printf "%-18s %-6s %-30s %-30s %d of %d, %d ties\n", name, better, summary("parent", name), summary("change", name), wins, pairs, ties
    }
    printf "failed operations: parent %d, change %d\n", failed["parent"], failed["change"]
  }'
