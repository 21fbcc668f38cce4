#!/usr/bin/env python3
"""Benchmark self-test: two traced runs of one seed give identical counts.

    python3 bench/check_determinism.py [SEED]

Runs every workload's traced worker twice on the same tasks and compares
every per-layer count (all metrics except times) and every task digest.
Exits 1 and lists the differences if any differ.  Count-based claims about a
layer are admissible only while this holds.
"""

from __future__ import annotations

import sys
import time

from run import WORKLOADS, spawn

TASKS = {"nf-deep": 25, "reduce": 12, "free-base": 40}


def is_count(name: str) -> bool:
    return not name.endswith("_s") and ".mean_us." not in name


def main(argv) -> int:
    seed = argv[0] if argv else "0"
    bad = 0
    for wl in WORKLOADS:
        args = ["--workload", wl, "--seed", seed, "--tasks", str(TASKS[wl]),
                "--trace"]
        a, b = (spawn(args, time.monotonic() + 600) for _ in range(2))
        diffs = [f"{k}: {a['layers'][k]} != {b['layers'][k]}"
                 for k in a["layers"]
                 if is_count(k) and a["layers"][k] != b["layers"][k]]
        if a["digests"] != b["digests"]:
            diffs.append("task digests differ")
        counts = sum(1 for k in a["layers"] if is_count(k))
        print(f"{wl}: {counts} counts, {len(a['digests'])} digests, "
              + ("identical" if not diffs else f"{len(diffs)} differ"))
        for d in diffs:
            print(f"  {d}")
        bad += bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
