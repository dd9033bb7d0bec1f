#!/usr/bin/env bash
# benchpair.sh — alternating parent/change runs of one benchmark workload, and
# a verdict on them.
#
# Usage: scripts/benchpair.sh <parent-ref> <workload> [pairs=10]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git, so a killed run leaves no worktree behind), then runs
#   bash bench/run.sh --workload W --seed 1 --seconds 12 --trace 0
# once on the parent and once on the working tree per pair, swapping which
# side goes first each pair, and prints for every end-to-end metric both
# sides' median and quartiles and how many pairs the change won. Below the
# table it prints one verdict per metric (spread = the parent's q3 - q1):
#   gain        at least 10 pairs ran, the change wins >= 90 % of them and
#               its median is better by more than the spread
#               (bench/README.md's rule for a claim)
#   loss        the change loses >= 80 % of pairs and its median is worse by
#               more than the spread
#   same        every pair ties
#   unresolved  anything else
# Beside each verdict it prints the change's median difference from the
# parent's median in percent and the metric's bound from BENCHMARK.json, so
# a consistent but tiny loss can be told from one near its bound; neither
# enters the verdict.
# Run the default ten pairs before trusting a gain or a loss: with two pairs
# the quartiles are two samples apart, and noise alone gives a loss on some
# metric in many runs. Below ten pairs no metric reads "gain" (3 wins of 3
# pairs is no evidence); "loss" keeps its rule at any count.
# Then it runs one traced pass (--trace 1) per side and compares the exact
# counters — the names in exactCounters in bench/report.go — value by value.
#
# Exit status: 0 when there is no loss, no more failed operations on the
# change than on the parent, and no counter difference; 1 otherwise, with
# each listed. A change that lowers a counter on purpose cites that list.
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

# run <dir> <out> <trace>: one benchmark run in <dir>; its failed-operation
# count and its "metric value" pairs, one a line, go to $tmp/<out>. A run
# whose checks fail still prints its final line; a run without one is broken.
run() {
  local line
  line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed 1 --seconds 12 --trace "$3" | tail -n 1) || true
  if [[ $line != *'"metrics":'* ]]; then
    echo "benchpair: no result line from $1 (--trace $3)" >&2
    exit 2
  fi
  {
    grep -o '"failed":[0-9]*' <<<"$line" | sed 's/"failed":/failed /'
    sed 's/.*"metrics"://' <<<"$line" |
      grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
      sed 's/"\([^"]*\)":{"value":/\1 /'
  } >"$tmp/$2"
}

for ((pair = 1; pair <= pairs; pair++)); do
  echo "pair $pair/$pairs" >&2
  if ((pair % 2)); then
    run "$tmp/parent" "parent.$pair" 0
    run "$PWD" "change.$pair" 0
  else
    run "$PWD" "change.$pair" 0
    run "$tmp/parent" "parent.$pair" 0
  fi
done
echo "traced pass" >&2
run "$tmp/parent" parent.trace 1
run "$PWD" change.trace 1

# "name better bound" for every end-to-end metric, in BENCHMARK.json's order.
awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
     on && /"name"/   {gsub(/[",]/, ""); name = $2}
     on && /"better"/ {gsub(/[",]/, ""); better = $2}
     on && /"bound"/  {gsub(/[",]/, ""); print name, better, $2}' BENCHMARK.json >"$tmp/better"
# The exact counters, one a line.
awk '/^var exactCounters/ {on = 1; next} on && /^}/ {exit} on' bench/report.go |
  grep -o '"[^"]*"' | tr -d '"' >"$tmp/counters"

echo "workload $workload: $pairs pairs, parent $(git rev-parse --short "$parent_ref") vs working tree"
awk -v pairs="$pairs" -v tmp="$tmp" '
  function quantile(v, n, p,    pos, lo, frac) {  # linear interpolation between order statistics
    pos = (n - 1) * p; lo = int(pos); frac = pos - lo
    return lo + 1 < n ? v[lo + 1] * (1 - frac) + v[lo + 2] * frac : v[n]
  }
  # summary sets med, q1 and q3 of one side and metric and returns them as text.
  function summary(side, name,    j, n, v, x) {
    for (n = 0; n < pairs; n++) {  # insertion sort
      x = val[side, name, n + 1] + 0
      for (j = n; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75)
    return sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
  }
  # load reads one run file into val[side, name, i].
  function load(side, i,    file, line, f) {
    file = tmp "/" side "." i
    while ((getline line < file) > 0) { split(line, f, " "); val[side, f[1], i] = f[2] }
    close(file)
    failed[side] += val[side, "failed", i]
  }
  BEGIN {
    for (i = 1; i <= pairs; i++) { load("parent", i); load("change", i) }
    load("parent", "trace"); load("change", "trace")

    printf "%-18s %-6s %-30s %-30s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change wins"
    while ((getline line < (tmp "/better")) > 0) {
      split(line, f, " "); name = f[1]; better = f[2]; bound[name] = f[3]; wins = losses = ties = 0
      for (i = 1; i <= pairs; i++) {
        p = val["parent", name, i] + 0; c = val["change", name, i] + 0
        if (c == p) ties++
        else if ((better == "lower") == (c < p)) wins++
        else losses++
      }
      ptext = summary("parent", name); pmed = med; spread = q3 - q1
      ctext = summary("change", name)
      gainBy = better == "lower" ? pmed - med : med - pmed  # > 0: the change is better
      if (ties == pairs) verdict = "same"
      else if (pairs >= 10 && wins * 10 >= pairs * 9 && gainBy > spread) verdict = "gain"
      else if (losses * 10 >= pairs * 8 && -gainBy > spread) verdict = "loss"
      else verdict = "unresolved"
      printf "%-18s %-6s %-30s %-30s %d of %d, %d ties\n", name, better, ptext, ctext, wins, pairs, ties
      order[++metrics] = name; verdicts[name] = verdict
      change[name] = pmed != 0 ? sprintf("%+.3g %%", (med - pmed) / pmed * 100) : (med == 0 ? "+0 %" : "n/a")
    }
    printf "failed operations: parent %d, change %d\n", failed["parent"], failed["change"]

    printf "\n%-18s %-10s %-14s %s\n", "verdict", "", "median change", "bound"
    for (m = 1; m <= metrics; m++) {
      printf "%-18s %-10s %-14s %g %%\n", order[m], verdicts[order[m]], change[order[m]], bound[order[m]] * 100
      if (verdicts[order[m]] == "loss") problems[++nproblems] = "loss: " order[m]
    }
    if (failed["change"] > failed["parent"])
      problems[++nproblems] = sprintf("failed operations: parent %d, change %d", failed["parent"], failed["change"])

    ndiff = 0
    while ((getline name < (tmp "/counters")) > 0) {
      p = (("parent", name, "trace") in val) ? val["parent", name, "trace"] : "missing"
      c = (("change", name, "trace") in val) ? val["change", name, "trace"] : "missing"
      if (p != c) {
        ndiff++
        problems[++nproblems] = sprintf("counter %s: parent %s, change %s", name, p, c)
      }
    }
    printf "\nexact counters (traced pass): %d differ\n", ndiff

    for (k = 1; k <= nproblems; k++) print "  " problems[k]
    exit (nproblems > 0)
  }'
