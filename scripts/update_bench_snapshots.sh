#!/usr/bin/env bash
# Regenerates the committed bench snapshots at the repo root:
#
#   BENCH_table6.json   bench_table6_search_latency (per-query latency)
#   BENCH_update.json   bench_update_staleness   (refresh cost/accuracy)
#   BENCH_journal.json  bench_journal_overhead   (WAL durability tax)
#   BENCH_shard.json    bench_shard_scatter      (scatter-gather fan-out
#                                                 + hedged tail recovery)
#   BENCH_feedback.json bench_feedback_drift     (residual-corrected vs
#                                                 base Q-error between
#                                                 refreshes, under drift)
#
# The snapshots pin the perf trajectory for review: regenerate on a perf-
# relevant change and commit the diff alongside it. Numbers are machine-
# dependent — reviewers compare metric *presence and ratios* across a
# snapshot's history on comparable hardware, not absolute values across
# machines (each report's meta block records host/compiler/build for that).
#
#   scripts/update_bench_snapshots.sh [scale]   # default tiny (fast; the
#                                               # committed snapshots' scale)
#
# Every report is validated against the simcard.metrics.v1 schema before it
# replaces the committed file.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="${1:-tiny}"
BUILD_DIR="${BUILD_DIR:-build}"
# Short but non-trivial measurement window (plain seconds — the bundled
# google-benchmark does not parse the "0.1s" suffixed form).
MIN_TIME="${MIN_TIME:-0.1}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j --target \
  bench_table6_search_latency bench_update_staleness \
  bench_journal_overhead bench_shard_scatter bench_feedback_drift

run() {
  local binary="$1" out="$2"
  shift 2
  echo "=== $binary -> $out ==="
  "$BUILD_DIR/bench/$binary" --scale="$SCALE" --seed=2026 --json="$out" \
    --benchmark_min_time="$MIN_TIME" "$@"
  python3 scripts/check_metrics_json.py "$out"
}

run bench_table6_search_latency BENCH_table6.json
# update_staleness is a table bench, not google-benchmark: no min-time flag.
echo "=== bench_update_staleness -> BENCH_update.json ==="
"$BUILD_DIR/bench/bench_update_staleness" --scale="$SCALE" --seed=2026 \
  --json=BENCH_update.json
python3 scripts/check_metrics_json.py BENCH_update.json
# journal_overhead is a table bench too (WAL durability tax on serving).
echo "=== bench_journal_overhead -> BENCH_journal.json ==="
"$BUILD_DIR/bench/bench_journal_overhead" --scale="$SCALE" --seed=2026 \
  --json=BENCH_journal.json
python3 scripts/check_metrics_json.py BENCH_journal.json
# shard_scatter is a table bench (scatter-gather fan-out + stall recovery).
echo "=== bench_shard_scatter -> BENCH_shard.json ==="
"$BUILD_DIR/bench/bench_shard_scatter" --scale="$SCALE" --seed=2026 \
  --json=BENCH_shard.json
python3 scripts/check_metrics_json.py BENCH_shard.json
# feedback_drift is a table bench (corrected vs base accuracy between
# refreshes); its exit code enforces the never-worse/strictly-better
# invariants on top of the schema check.
echo "=== bench_feedback_drift -> BENCH_feedback.json ==="
"$BUILD_DIR/bench/bench_feedback_drift" --scale="$SCALE" --seed=2026 \
  --json=BENCH_feedback.json
python3 scripts/check_metrics_json.py BENCH_feedback.json

echo "snapshots updated: BENCH_table6.json BENCH_update.json" \
     "BENCH_journal.json BENCH_shard.json BENCH_feedback.json"
