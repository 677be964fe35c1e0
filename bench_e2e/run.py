#!/usr/bin/env python3
"""Builds bench_e2e from the checkout it sits in and runs one workload.

    python3 bench_e2e/run.py --workload paper --seed 7 --seconds 15 --trace 0

The build lives in .bench_build/e2e under the checkout root: configured on
first use, then brought up to date before every run. bench_e2e runs with
.bench_build/out as its working directory, where traced runs leave their
perf ledger (BENCH_e2e_<workload>.json) and Chrome trace
(OBS_e2e_<workload>.trace.json). The last line of stdout is bench_e2e's
result document, checked against the metric names and units BENCHMARK.json
declares; build output and progress go to stderr. Without the repository's
sources, or when the build or the run fails, it exits nonzero and prints no
result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "bench_e2e"
BUILD = ROOT / ".bench_build" / "e2e"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ["paper", "dense", "ingest", "ingest_faulted", "udp"]
CONFIGURE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench_e2e/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group, which is killed and reaped
    on timeout or interrupt, so no compiler or benchmark process outlives this script."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            fail(f"{Path(command[0]).name} did not finish within {timeout} s")
        raise
    return process.returncode, stdout


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no booterscope sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      CONFIGURE_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                   "--parallel", "4"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")


def expected_metrics(benchmark, trace):
    section = benchmark["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def check(document, expected):
    if set(document) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(document)}")
    for key in ("attempted", "failed"):
        if not isinstance(document[key], int) or document[key] < 0:
            fail(f"{key} is not a count")
    metrics = document["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected[name]:
            fail(f"{name} has unit {metric.get('unit')}, not {expected[name]}")
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"{name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.seed < 0 or not 0 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within [0, 600]")

    build()
    expected = expected_metrics(benchmark, args.trace == 1)
    OUT.mkdir(parents=True, exist_ok=True)
    code, stdout = run([str(BUILD / "bench_e2e"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)],
                       RUN_TIMEOUT_S, cwd=OUT, stdout=subprocess.PIPE, text=True)
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"bench_e2e exited {code} without a result")
    try:
        document = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"bench_e2e's last line is not JSON: {lines[-1][:200]}")
    check(document, expected)
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
