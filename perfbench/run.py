#!/usr/bin/env python3
"""Runs one workload of the simcard benchmark and prints its result line.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark binary under .bench_build/ on first
use (perfbench/CMakeLists.txt), runs the workload in one process, keeps the
full run record under .bench_out/, and prints as the last line of stdout one
JSON object with `correct`, `attempted`, `failed` and `metrics`: every
`end_to_end` metric of BENCHMARK.json with --trace 0, every `per_layer`
metric with --trace 1. Build logs and the run's own logs go to stderr.

--seed orders the request stream; the dataset, the models and the ingest
update stream come from a fixed data seed, so the accuracy figures repeat
exactly across seeds. --scale tiny is for the smoke test only.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "simcard_perfbench")
WORKLOADS = ("plan", "bulk", "ingest", "scatter")
# One run must end within 180 s; the build before the first run is not
# counted against this.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simcard sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"{cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("tiny", "small"), default="small")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be at least 1 and --seed not negative")
        return 2
    if not build():
        return 2
    try:
        wanted = metric_names(args.trace)
    except (OSError, ValueError, KeyError) as err:
        log(f"reading BENCHMARK.json: {err}")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", OUT_DIR]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {done.returncode}")
        return 1
    record = json.loads(lines[-1])
    record_path = os.path.join(
        OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}"
                 ".json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for name, m in sorted(record["metrics"].items()):
        log(f"{name} = {m['value']} {m['unit']}")
    for name, check in sorted(record["checks"].items()):
        log(f"check {name}: {'ok' if check['ok'] else 'FAILED'} "
            f"({check['detail']})")

    metrics = {}
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log(f"metric {spec['name']} missing or not in {spec['unit']}")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
