#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/sbbench (and the simulator library it links) from the
sources of the checkout this file sits in, runs one workload, and
prints every metric with its unit. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload perf-window --seed 1 \
        --seconds 50 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("perf-window", "verify-cells")
BUILD_TIMEOUT_S = 840
# Separate processes whose cold set-up times make up setup_s (their median).
SETUP_PROCESSES = 15


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Configure once, then build the driver incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no simulator sources in {ROOT}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "sbbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "sbbench")


def git_head():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    print(f"# git HEAD {git_head()}, nproc {os.cpu_count()}")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", os.path.join(BUILD_DIR, "work")]
    setup_runs = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES):
            proc = subprocess.run(base + ["--setup-only", "1"],
                                  capture_output=True, text=True,
                                  timeout=60, check=False)
            last = proc.stdout.strip().split("\n")[-1].split()
            if proc.returncode != 0 or len(last) != 2:
                sys.stderr.write(proc.stderr)
                fail("set-up run failed", proc.returncode or 1)
            setup_runs.append(last[1])
    cmd = base + ["--seconds", str(args.seconds), "--trace",
                  str(args.trace)]
    if setup_runs:
        cmd += ["--setup-runs", ",".join(setup_runs)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 170 s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit {proc.returncode})",
             proc.returncode or 1)

    declared = declared_metrics(args.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        missing = sorted(declared - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - declared)
        fail(f"metrics do not match BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
