#!/usr/bin/env python3
"""Smoke test of the simcard benchmark at tiny scale.

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py for one second, untraced and
traced, and checks that:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    the run is correct and no operation failed;
  * every metric BENCHMARK.json names for the mode is emitted with its unit;
  * the full run record (.bench_out/record-*.json) also carries the
    workload's own metrics below, each with its unit.
Then it runs bulk with the serve.batch_eval fault armed and checks that the
run reports a non-zero failed share. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7


def timing(name, unit="us"):
    return {f"{name}.p50": unit, f"{name}.p99": unit}


# The wall-clock read figures: BENCHMARK.json lists them with the traced
# run's metrics, without a bound, and every untraced run's record has them.
READS = {"qps": "1/s", "lat_p50_us": "us", "lat_p90_us": "us",
         "lat_p99_us": "us"}

# Metrics of the full run record that BENCHMARK.json does not list for the
# mode: the read figures above and those only some workloads have (its
# lists must be emitted by every workload).
WORKLOAD_METRICS = {
    ("plan", 0): READS,
    ("bulk", 0): READS,
    ("ingest", 0): {**READS, "write_p50_us": "us", "write_p99_us": "us",
                    "refresh_s": "s"},
    ("scatter", 0): READS,
    ("plan", 1): {**timing("serve.report_us"),
                  **timing("feedback.correct_us"),
                  **timing("feedback.record_us"),
                  "feedback.corrected_ratio": "ratio",
                  **timing("reconcile.plan_handoff_us"),
                  "reconcile.plan_service_within_ratio": "ratio"},
    ("ingest", 1): {**timing("update.insert_us"), **timing("update.erase_us"),
                    **timing("update.journal_append_us"),
                    **timing("update.journal_sync_us"),
                    "update.segments_refreshed": "count",
                    **{f"update.refresh.{step}_s": "s" for step in (
                        "relabel", "route", "fallbacks", "finetune_locals",
                        "finetune_global", "clone")}},
    ("scatter", 1): {**timing("shard.primary_us"),
                     **timing("shard.gather_us"),
                     "shard.hedge_ratio": "ratio",
                     "shard.hedge_won_ratio": "ratio",
                     "shard.partial_ratio": "ratio", "shard.build_s": "s"},
}


def fail(message):
    print(f"smoke_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=900)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    record_path = os.path.join(
        ROOT, ".bench_out", f"record-{workload}-seed{SEED}-trace{trace}.json")
    with open(record_path) as f:
        record = json.load(f)
    return result, record


def check_units(where, metrics, expected):
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            fail(f"{where}: metric {name} missing")
        if got["unit"] != unit:
            fail(f"{where}: metric {name} in {got['unit']}, expected {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            result, record = run(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{where}: correct={result['correct']} "
                     f"failed={result['failed']} checks={record['checks']}")
            if result["attempted"] < 1:
                fail(f"{where}: nothing attempted")
            listed = spec["per_layer" if trace else "end_to_end"]
            check_units(where, result["metrics"],
                        {m["name"]: m["unit"] for m in listed})
            if set(result["metrics"]) != {m["name"] for m in listed}:
                fail(f"{where}: result metrics differ from BENCHMARK.json")
            check_units(where + " record", record["metrics"],
                        WORKLOAD_METRICS.get((workload, trace), {}))
            print(f"smoke_test: {where} ok ({len(record['metrics'])} metrics)")

    env = dict(os.environ, SIMCARD_FAULT_POINTS="serve.batch_eval")
    result, _ = run("bulk", 0, env=env)
    if result["failed"] == 0 or result["correct"]:
        fail("bulk with serve.batch_eval armed reported no failed operation")
    share = result["failed"] / result["attempted"]
    print(f"smoke_test: bulk with serve.batch_eval armed failed "
          f"{result['failed']}/{result['attempted']} ({share:.3f}) ok")
    print("smoke_test: PASS")


if __name__ == "__main__":
    main()
