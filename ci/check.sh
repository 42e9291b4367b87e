#!/usr/bin/env bash
# Pre-merge gate: formatting, clippy and rustdoc (deny warnings), the
# project's own determinism/invariant lint, the full test suite, the
# artifact smokes and a same-host benchmark A/B against the parent commit.
# Run from anywhere; CI and contributors run exactly this script (see
# CONTRIBUTING.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
# A doc comment linking to a deleted or renamed item fails here as an
# unresolved intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> g2pl-lint (workspace analyzer: L1-L7 + state-machine reachability)"
# Deny-new-findings mode: the analyzer exits nonzero on ANY unsuppressed
# finding across every workspace member, so a new violation (or a stale
# allow marker) fails the gate here. The summary line prints the wall
# time; the analyzer must stay interactive (< 5s) so it can run on every
# pre-merge check without anyone being tempted to skip it.
cargo run -q --release -p g2pl-lint

echo "==> g2pl-lint --dot smoke (state-machine extraction)"
# The extractor must keep seeing the protocol engines: one digraph per
# engine, or the reachability lints above are checking an empty graph.
dot_out="$(cargo run -q --release -p g2pl-lint -- --dot)"
for engine in g2pl s2pl c2pl; do
  echo "$dot_out" | grep -q "digraph $engine {" \
    || { echo "g2pl-lint --dot: missing state machine for $engine"; exit 1; }
done

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench self-tests (the repo benchmark, its own Cargo workspace)"
# --locked: a change that would rewrite perfbench/Cargo.lock changes the
# benchmark's dependency graph, so it fails here instead of passing
# silently.
cargo test -q --release --locked --manifest-path perfbench/Cargo.toml

echo "==> trace-explain smoke (event export, round accounting, offline P1-P10 check)"
# fig2 exports both paper engines on a reliable network; fig_shard_faults
# adds per-shard crashes, recovery and 2PC across 1-8 shards, so the
# offline check runs P8-P10 on exported files too; ext-victims is an
# extension study whose 18 cells differ only in engine, victim policy and
# read probability, one export file each; fig14's g-2PL cell at 150
# clients and read probability 0.75 closes the longest collection windows
# of any export (25 entries at smoke scale), so the precedence DAG's
# debug assertions run on it in this dev build; fig_faults adds 18 lossy
# files, the only c-2PL traces of the set, with `fault_injected` events
# and g-2PL item-keyed lease expiries, so the P8 expiry matching runs
# offline too. Every exported file must print `trace-check: PASS`: the
# exported trace is the checked one.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q -p g2pl-bench --bin repro -- --scale smoke --trace-out "$trace_dir" fig2 fig_shard_faults ext-victims fig14 fig_faults >/dev/null
explain_out="$(cargo run -q -p g2pl-bench --bin trace-explain -- --best-case "$trace_dir"/*.jsonl || true)"
# grep -q stops reading at its first match, so under pipefail `echo | grep -q`
# fails with SIGPIPE once the output outgrows the pipe buffer; the reports
# below are fed to grep as here-strings instead.
grep -q "round-check: PASS (s-2PL" <<< "$explain_out" \
  || { echo "trace-explain: s-2PL round check failed"; echo "$explain_out"; exit 1; }
grep -q "round-check: PASS (g-2PL" <<< "$explain_out" \
  || { echo "trace-explain: g-2PL round check failed"; echo "$explain_out"; exit 1; }
if grep -q "FAIL" <<< "$explain_out"; then
  echo "trace-explain: a check failed"; echo "$explain_out"; exit 1
fi
n_files="$(ls "$trace_dir"/*.jsonl | wc -l)"
n_pass="$(echo "$explain_out" | grep -c "^trace-check: PASS" || true)"
if [ "$n_files" -eq 0 ] || [ "$n_pass" -ne "$n_files" ]; then
  echo "trace-explain: $n_pass of $n_files exported traces print trace-check: PASS"
  echo "$explain_out"; exit 1
fi

echo "==> trace-explain --tail smoke (flight recorder + marker cross-check)"
# Tail mode replays the exported trace, attributes the worst-k
# transactions to phases, and cross-checks the exporter's slow_txn
# markers against the replayed flight recorder.
tail_out="$(cargo run -q -p g2pl-bench --bin trace-explain -- --tail "$trace_dir"/*.jsonl || true)"
grep -q "tail-check: PASS" <<< "$tail_out" \
  || { echo "trace-explain --tail: marker cross-check failed"; echo "$tail_out"; exit 1; }
if grep -q "FAIL" <<< "$tail_out"; then
  echo "trace-explain --tail: a check failed"; echo "$tail_out"; exit 1
fi

echo "==> scorecard smoke (the paper's claims, checked on the rows they read)"
# Builds every registry row a claim of experiments::CLAIMS reads, once,
# at smoke scale, verified, and checks every claim. repro exits 1 when a
# claim gated at smoke scale disagrees with its expected verdict: a
# claim expected to hold fails, or a known divergence closes.
cargo run -q --release -p g2pl-bench --bin repro -- --scale smoke scorecard >/dev/null \
  || { echo "scorecard smoke: a claim disagrees with its expected verdict"; exit 1; }

echo "==> figure smokes (fig_tail, fig_faults, fig_server_faults, fig_shard_faults, fig_scale; P1-P10 verification on)"
# One repro run writes all five figures' CSVs. Verification is on by
# default: every cell re-runs with trace + history recording and must
# pass P1-P10 plus the serializability check, and drain mode proves
# recovery liveness.
# - fig_tail: all three engines over the client sweep; the figure must
#   emit both the p99/p999 curves and the side tail CSV.
# - fig_faults: the loss sweep, including the lossy cells exercising
#   lease recovery.
# - fig_server_faults: each cell crashes the server twice mid-run
#   (crash-window hygiene, no lost acknowledged commit).
# - fig_shard_faults: each cell beyond one shard mixes 30% multi-home
#   transactions and crashes the highest shard twice mid-run
#   (cross-shard atomicity: no lost acknowledged commit, no unresolved
#   prepare vote) across 1/2/4/8 fault domains.
# - fig_scale: every cell of the sharded clients x shards grid runs on
#   the conservative PDES (one LP per shard, link latency as lookahead),
#   drains to quiescence, and verifies its lock tables and client states
#   before reporting.
# The run takes seconds; the timeout turns a PDES worker stuck at a
# window barrier into a failure instead of a hung gate.
timeout 300 cargo run -q --release -p g2pl-bench --bin repro -- --scale smoke --out "$trace_dir" \
    fig_tail fig_faults fig_server_faults fig_shard_faults fig_scale >/dev/null \
  || { status=$?
       if [ "$status" -eq 124 ]; then
         echo "figure smokes: repro ran past 300 s; a fig_scale PDES worker may be deadlocked at a window barrier"
       else
         echo "figure smokes: repro failed (exit $status)"
       fi
       exit 1; }
for csv in fig_tail fig_tail_tail fig_faults fig_server_faults fig_shard_faults \
    fig_shard_faults_tail fig_scale fig_scale_tail; do
  test -f "$trace_dir/$csv.csv" || { echo "figure smokes: $csv.csv missing"; exit 1; }
done
for csv in fig_tail_tail fig_scale_tail; do
  grep -q "^x,series,p50,p90,p99,p999,max,count$" "$trace_dir/$csv.csv" \
    || { echo "figure smokes: $csv.csv quantile header missing"; exit 1; }
done

echo "==> chaos smoke (randomized fault-plan search with shrinking, shard-aware)"
# A small fixed-seed search: samples (seed, FaultPlan) pairs across all
# three engines, verifies every run end to end, and fails the gate with
# a minimal shrunk reproducer command line if any trial breaks.
cargo run -q --release -p g2pl-bench --bin chaos -- --trials 6 --seed 1

echo "==> dev-profile g-2PL chaos smoke (every skipped deadlock search re-run)"
# The release smoke above compiles the skip rules' cross-check out. A
# dev build re-runs every deadlock search a g-2PL skip rule skipped and
# panics if it finds a cycle; random fault plans reach the lease,
# recovery and hold re-base paths the fixed tests may not (~1 s).
cargo run -q -p g2pl-bench --bin chaos -- --trials 200 --seed 1 --engine g2pl

echo "==> multi-shard chaos smoke (seeded repro: crash a non-zero shard mid-run)"
# One pinned multi-shard case per engine: 4 fault domains, 30% multi-home
# transactions, shard 2 crashed mid multi-home commitment plus an
# inter-shard partition — the exact scenario P10 exists to police.
for engine in g2pl s2pl c2pl; do
  cargo run -q --release -p g2pl-bench --bin chaos -- --repro --engine "$engine" --seed 7 \
    --shards 4 --server-crash 2:5000:1200:0 --shard-partition 1:2:6000:9000 \
    || { echo "multi-shard chaos smoke: $engine failed"; exit 1; }
done

echo "==> perfbench A/B against the commit under test's parent (same host)"
# The only speed gate: every BENCHMARK.json workload, 5 alternating pairs
# of one-second runs of the base's and the change's perfbench. Every run
# must verify every cell and fail none, and each workload's change median
# events_per_s may fall below the base's by at most its BENCHMARK.json
# bound. scale_pdes drains and verifies 10k x 4 and 40k x 8 clients x
# shards on the PDES. With uncommitted changes the working tree is the
# change and HEAD its base; otherwise HEAD is the change and HEAD~1.
if git diff --quiet HEAD; then base_rev=HEAD~1; else base_rev=HEAD; fi
ci/bench_ab.sh "$base_rev"

echo "ci/check.sh: all gates passed"
