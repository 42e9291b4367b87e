#!/usr/bin/env bash
# Same-host A/B of the repo benchmark: the working tree's perfbench
# against the perfbench of <base-rev>, on every BENCHMARK.json workload.
#
#   ci/bench_ab.sh <base-rev>
#
# Extracts <base-rev> with `git archive` under target/bench-base/ (no
# worktree metadata), builds both perfbench binaries, and runs PAIRS
# pairs per workload, alternating which side runs first (the base runs
# first in odd pairs). Prints each end-to-end metric's base and change
# medians with quartiles, the change of the medians and the pairs the
# change won, and flags every sim_* value that differs between the
# sides. Exits 1 when any run reports a failed cell or is not correct,
# or when a workload's change median events_per_s falls below the base
# median by more than the metric's BENCHMARK.json bound.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=5
RUN_SECONDS=1
SEED=1

[ $# -eq 1 ] || { echo "usage: ci/bench_ab.sh <base-rev>" >&2; exit 2; }
base_rev="$1"

if ! sha="$(git rev-parse --verify --quiet "$base_rev^{commit}")"; then
  if [ "$(git rev-parse --is-shallow-repository)" = true ]; then
    echo "bench_ab: $base_rev is not in this shallow clone's history; fetch more of it (git fetch --deepen=1)" >&2
  else
    echo "bench_ab: $base_rev names no commit" >&2
  fi
  exit 1
fi
git cat-file -e "$sha:perfbench/Cargo.toml" 2>/dev/null \
  || { echo "bench_ab: $base_rev ($sha) has no perfbench/ to compare against" >&2; exit 1; }

base_tree=target/bench-base
out=target/bench-ab
rm -rf "$base_tree" "$out"
mkdir -p "$base_tree" "$out"
git archive "$sha" | tar -x -C "$base_tree"

# Each tree builds into its own perfbench/target.
unset CARGO_TARGET_DIR
for tree in "$base_tree" .; do
  cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml"
done
declare -A bin=(
  [base]="$base_tree/perfbench/target/release/perfbench"
  [change]="perfbench/target/release/perfbench"
)

# One run's result line, appended to $out/<workload>.<side>.
run() {
  local side="$1" workload="$2" line
  line="$("${bin[$side]}" --workload "$workload" --seed "$SEED" --seconds "$RUN_SECONDS" \
    --trace 0 | tail -n 1)" || true
  jq -e 'has("correct")' <<< "$line" > /dev/null 2>&1 \
    || { echo "bench_ab: $side $workload printed no result: $line" >&2; exit 1; }
  echo "$line" >> "$out/$workload.$side"
}

# Per metric of BENCHMARK.json's end_to_end list, tab-separated: name,
# base median q1 q3, change median q1 q3, the median's change in %, the
# pairs the change won and ran, whether the two sides' value sets
# differ, and whether the change median is worse than the base's by
# more than the metric's bound.
summary='
def quant($p): sort as $s | ((($s | length) - 1) * $p) as $x | ($x | floor) as $i
  | if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
$spec[0].end_to_end[] as $m
| ($b | map(.metrics[$m.name].value)) as $bv
| ($c | map(.metrics[$m.name].value)) as $cv
| ($bv | quant(0.5)) as $bmed
| ($cv | quant(0.5)) as $cmed
| (if $m.better == "higher" then 1 else -1 end) as $up
| [$m.name, $bmed, ($bv | quant(0.25)), ($bv | quant(0.75)),
   $cmed, ($cv | quant(0.25)), ($cv | quant(0.75)),
   (if $bmed == 0 then 0 else ($cmed - $bmed) / $bmed * 100 end),
   ([range(0; $bv | length) | select(($cv[.] - $bv[.]) * $up > 0)] | length),
   ($bv | length),
   (($bv | unique) != ($cv | unique)),
   (($cmed - $bmed) * $up < - $m.bound * $bmed)]
| @tsv'

failed=0
workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"
echo "bench_ab: base $base_rev ($sha) vs the working tree, $PAIRS pairs per workload," \
  "--seed $SEED --seconds $RUN_SECONDS --trace 0"
for workload in $workloads; do
  for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
      run base "$workload"; run change "$workload"
    else
      run change "$workload"; run base "$workload"
    fi
  done
  for side in base change; do
    bad="$(jq -r --arg run "$workload $side" 'select(.correct != true or .failed != 0)
      | "bench_ab: \($run) run: correct \(.correct), failed \(.failed) of \(.attempted) cells"' \
      "$out/$workload.$side")"
    [ -z "$bad" ] || { echo "$bad"; failed=1; }
  done

  echo
  echo "| $workload | base median [q1, q3] | change median [q1, q3] | Δ median | change wins |"
  echo "|---|---|---|---|---|"
  notes=()
  while IFS=$'\t' read -r name bmed bq1 bq3 cmed cq1 cq3 delta wins n differ worse; do
    printf '| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %s/%s |\n' \
      "$name" "$bmed" "$bq1" "$bq3" "$cmed" "$cq1" "$cq3" "$delta" "$wins" "$n"
    if [[ "$name" == sim_* && "$differ" == true ]]; then
      notes+=("FLAG: $workload $name differs between base and change")
    fi
    if [[ "$name" == events_per_s && "$worse" == true ]]; then
      notes+=("bench_ab: $workload events_per_s median fell past its BENCHMARK.json bound")
      failed=1
    fi
  done < <(jq -r -n --slurpfile b "$out/$workload.base" --slurpfile c "$out/$workload.change" \
    --slurpfile spec BENCHMARK.json "$summary")
  [ ${#notes[@]} -eq 0 ] || printf '%s\n' "${notes[@]}"
done

echo
echo "bench_ab: $(wc -w <<< "$workloads") workloads x $PAIRS pairs in ${SECONDS}s"
if [ "$failed" -ne 0 ]; then
  echo "bench_ab: FAIL"
  exit 1
fi
echo "bench_ab: PASS"
