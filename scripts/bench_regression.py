#!/usr/bin/env python3
"""Bench-regression gate: diff the simulator throughput artifacts
against the committed baselines.

    scripts/bench_regression.py [--build-dir build]
                                [--baseline-dir bench/baselines]
                                [--tolerance 0.20] [--update]
                                [--min-speedup X] [--floor-only]

Compares BENCH_simspeed.json (per-scheme simulated MIPS) against the
committed baseline and exits nonzero when any scheme regressed by more
than the tolerance (default 20%, override with --tolerance or the
SB_BENCH_TOLERANCE environment variable). It also gates the artifact's
parity signature: each scheme's simulated cycles and instructions must
equal the baseline's exactly, because pure performance work may change
how fast the simulator runs but never what it simulates. The
signature is only comparable at the baseline's instruction budget, so
a --quick artifact skips that check and says so. BENCH_gridspeed.json is
diffed informationally: its cell accounting (requested / simulated /
dedup / cache) is deterministic and drift there means the scenario
grid itself changed, but its wall-clock depends on cache warmth so it
never gates.

--min-speedup X adds a *floor* gate: every scheme must reach at least
X times its committed baseline MIPS. Unlike the tolerance gate (meant
for the reference machine, so it is tight), the floor is meant to be
loose enough to hold on any hardware — CI runners are slower than the
reference machine, but a catastrophic engine regression (an order of
magnitude, a pathological O(n) loop) still trips it.

--floor-only applies just the floor gate and skips both the tolerance
gate and the gridspeed diff; together with `bench_simspeed --quick`
this is the CI smoke configuration, which has no gridspeed artifact.

--update refreshes the committed baselines from the current build
directory (run on the reference machine after an intentional
performance change, and say so in the commit).

Only the standard library is used; no third-party dependencies.
"""

import argparse
import json
import os
import shutil
import sys

SIMSPEED = "BENCH_simspeed.json"
GRIDSPEED = "BENCH_gridspeed.json"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"bench_regression: missing {path}")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_regression: malformed {path}: {err}")


def diff_simspeed(baseline, current, tolerance, min_speedup=None,
                  floor_only=False):
    base_schemes = {s["name"]: s for s in baseline.get("schemes", [])}
    cur_schemes = {s["name"]: s for s in current.get("schemes", [])}
    failures = []

    if floor_only:
        gate = f"gate: MIPS >= {min_speedup:.2f}x baseline"
    elif min_speedup is not None:
        gate = (f"gate: MIPS within -{tolerance:.0%}, "
                f"floor {min_speedup:.2f}x")
    else:
        gate = f"gate: MIPS within -{tolerance:.0%}"
    print(f"--- {SIMSPEED} ({gate}) ---")
    print(f"{'scheme':<12} {'base MIPS':>10} {'now MIPS':>10} {'delta':>8}")
    for name, base in base_schemes.items():
        cur = cur_schemes.get(name)
        if cur is None:
            failures.append(f"scheme '{name}' missing from current run")
            continue
        base_mips = float(base["mips"])
        cur_mips = float(cur["mips"])
        delta = (cur_mips - base_mips) / base_mips if base_mips else 0.0
        marker = ""
        if (not floor_only and base_mips
                and cur_mips < base_mips * (1.0 - tolerance)):
            failures.append(
                f"{name}: {cur_mips:.3f} MIPS vs baseline "
                f"{base_mips:.3f} ({delta:+.1%})"
            )
            marker = "  <-- REGRESSION"
        if (min_speedup is not None and base_mips
                and cur_mips < base_mips * min_speedup):
            failures.append(
                f"{name}: {cur_mips:.3f} MIPS below the floor of "
                f"{min_speedup:.2f}x baseline "
                f"({base_mips * min_speedup:.3f})"
            )
            marker = "  <-- BELOW FLOOR"
        print(f"{name:<12} {base_mips:>10.3f} {cur_mips:>10.3f} "
              f"{delta:>+7.1%}{marker}")
    for name in cur_schemes.keys() - base_schemes.keys():
        print(f"{name:<12} {'(new)':>10} "
              f"{float(cur_schemes[name]['mips']):>10.3f}")
    return failures


def diff_signature(baseline, current):
    """Per-scheme cycles and instructions must equal the baseline's."""
    base_n = baseline.get("insts_per_workload")
    cur_n = current.get("insts_per_workload")
    print(f"\n--- {SIMSPEED} parity signature "
          f"(gate: cycles and instructions identical) ---")
    if base_n != cur_n:
        print(f"skipped: the artifact ran {cur_n} instructions per "
              f"workload, the baseline {base_n} (a --quick run?)")
        return []
    cur_schemes = {s["name"]: s for s in current.get("schemes", [])}
    failures = []
    print(f"{'scheme':<12} {'base cycles':>12} {'now cycles':>12} "
          f"{'base insts':>11} {'now insts':>11}")
    for base in baseline.get("schemes", []):
        name = base["name"]
        cur = cur_schemes.get(name)
        if cur is None:
            continue  # Already a diff_simspeed failure.
        marker = ""
        for key in ("cycles", "instructions"):
            if base.get(key) != cur.get(key):
                failures.append(f"{name}: {key} {cur.get(key)} vs "
                                f"baseline {base.get(key)}")
                marker = "  <-- TIMING MOVED"
        print(f"{name:<12} {base.get('cycles'):>12} {cur.get('cycles'):>12} "
              f"{base.get('instructions'):>11} "
              f"{cur.get('instructions'):>11}{marker}")
    return failures


def diff_gridspeed(baseline, current):
    print(f"\n--- {GRIDSPEED} (informational) ---")
    keys = ["cells_requested", "cells_simulated", "cells_from_dedup",
            "cells_from_cache"]
    drifted = False
    for key in keys:
        base_v = baseline.get(key)
        cur_v = current.get(key)
        note = ""
        # The *requested* cell count is a property of the scenario
        # registry, not of cache warmth; a change there means the grid
        # itself changed shape and the baseline wants refreshing.
        if key == "cells_requested" and base_v != cur_v:
            note = "  <-- grid shape changed (refresh baseline?)"
            drifted = True
        print(f"{key:<20} base={base_v}  now={cur_v}{note}")
    print(f"{'wall_seconds':<20} base={baseline.get('wall_seconds')}  "
          f"now={current.get('wall_seconds')} (cache-warmth dependent)")
    return drifted


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("SB_BENCH_TOLERANCE", "0.20")),
    )
    parser.add_argument("--update", action="store_true",
                        help="refresh the committed baselines")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="floor gate: each scheme must reach X times its baseline "
             "MIPS (machine-tolerant catastrophic-regression check)",
    )
    parser.add_argument(
        "--floor-only",
        action="store_true",
        help="apply only the --min-speedup floor; skip the tolerance "
             "gate and the gridspeed diff (CI smoke mode)",
    )
    args = parser.parse_args()
    if args.floor_only and args.min_speedup is None:
        parser.error("--floor-only requires --min-speedup")

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name in (SIMSPEED, GRIDSPEED):
            src = os.path.join(args.build_dir, name)
            if not os.path.exists(src):
                sys.exit(f"bench_regression: cannot update, missing {src}")
            shutil.copyfile(src, os.path.join(args.baseline_dir, name))
            print(f"updated {args.baseline_dir}/{name}")
        return

    base_simspeed = load(os.path.join(args.baseline_dir, SIMSPEED))
    cur_simspeed = load(os.path.join(args.build_dir, SIMSPEED))
    failures = diff_simspeed(
        base_simspeed,
        cur_simspeed,
        args.tolerance,
        min_speedup=args.min_speedup,
        floor_only=args.floor_only,
    )
    failures += diff_signature(base_simspeed, cur_simspeed)
    if not args.floor_only:
        diff_gridspeed(
            load(os.path.join(args.baseline_dir, GRIDSPEED)),
            load(os.path.join(args.build_dir, GRIDSPEED)),
        )

    if failures:
        print("\nFAIL: simulator throughput / parity gate:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("\nbench regression gate: PASS")


if __name__ == "__main__":
    main()
