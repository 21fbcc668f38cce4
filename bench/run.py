#!/usr/bin/env python3
"""Layered benchmark for znfree: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload {nf-deep,reduce,free-base} --seed N
                         --seconds S --trace {0,1}

Load shape: one closed-loop client per workload, one process, one thread;
the next task starts when the previous one returns, as a library caller
uses the engine.  Inputs come from the seed alone (see workloads.py).

--trace 0 starts the workload's set-up alone SETUP_REPEATS times, then once
more followed by S seconds of tasks, and reports setup_s (median of the
set-ups), tasks_per_s (tasks over their summed latencies), task_p50_ms,
task_p90_ms and peak_rss_mb.  Set-up and task times are scaled to a
reference host speed with hostspeed.py's probe, as the host's own speed
varies; the summary also prints them by the wall clock.  --trace 1
runs a fixed number of tasks twice, untraced and then traced, so per-layer
counts repeat exactly for a seed, and reports the per-layer metrics with
trace.overhead_ratio.  Both print a readable summary, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

A task fails on a wrong answer under its checks, on a digest that differs
from bench/reference/<workload>.json (default seed only), or on any
exception.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("nf-deep", "reduce", "free-base")
SETUP_REPEATS = 8
TRACE_TASKS = {"nf-deep": 200, "reduce": 24, "free-base": 200}
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{' '.join(args)}")
    return json.loads(out.decode().strip().splitlines()[-1])


def histograms(traffic: list) -> dict:
    """Per dimension, how often each value occurred (lists count each
    element)."""
    out: dict = {}
    for row in traffic:
        for k, v in row.items():
            c = out.setdefault(k, Counter())
            c.update(v if isinstance(v, list) else [v])
    return {k: dict(sorted(c.items())) for k, c in out.items()}


def p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else xs[0]


def run_digest(digests: list) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def end_to_end(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    reps = [spawn(common + ["--setup-only"], deadline)
            for _ in range(SETUP_REPEATS)]
    rep = spawn(common + ["--seconds", str(seconds)], deadline)
    reps.append(rep)
    setups = [r["setup_s"] * NOMINAL_S / r["setup_probe_s"] for r in reps]
    raw_setup = statistics.median(r["setup_s"] for r in reps)
    lat, raw = rep["scaled"], rep["latencies"]
    n, hi = len(lat), p90(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (n / sum(lat), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "task_p90_ms": (1e3 * hi, "ms"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; "
                   f"wall clock {raw_setup:.4g} s",
        "tasks_per_s": f"{n} tasks, {sum(lat):.2f} s scaled task time; "
                       f"wall clock {n / rep['loop_s']:.4g} tasks/s over "
                       f"{rep['loop_s']:.2f} s",
        "task_p50_ms": f"n={n}; wall clock "
                       f"{1e3 * statistics.median(raw):.4g} ms",
        "task_p90_ms": f"n={n}, {sum(1 for x in lat if x > hi)} beyond; "
                       f"wall clock {1e3 * p90(raw):.4g} ms",
        "peak_rss_mb": "workload process",
    }
    return rep, metrics, notes


def per_layer(workload, seed, deadline):
    common = ["--workload", workload, "--seed", str(seed),
              "--tasks", str(TRACE_TASKS[workload])]
    plain = spawn(common, deadline)
    rep = spawn(common + ["--trace"], deadline)
    layers = dict(rep["layers"])
    layers["trace.overhead_ratio"] = (sum(rep["scaled"])
                                      / sum(plain["scaled"]))
    rep["failures"] = plain["failures"] + rep["failures"] + [
        f"task {i}: traced answer differs from the untraced one"
        for i, (a, b) in enumerate(zip(plain["digests"], rep["digests"]))
        if a != b]
    rep["tasks"] += plain["tasks"]
    return rep, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "znfree" / "__init__.py").is_file():
        print(f"run.py: no znfree sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            rep, layers = per_layer(args.workload, args.seed, deadline)
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())
            metrics = {m["name"]: (layers[m["name"]], m["unit"])
                       for m in declared["per_layer"]}
            notes = {}
        else:
            rep, metrics, notes = end_to_end(args.workload, args.seed,
                                             args.seconds, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed = rep["tasks"], len(rep["failures"])
    traffic = histograms(rep["traffic"])
    mode = "traced, fixed task count" if args.trace else "closed loop"
    print(f"workload {args.workload} (seed {args.seed}, {mode}, "
          "1 client, 1 process, 1 thread)")
    print(f"  why: {rep['why']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:38s} {value:14.6g} {unit}{note}")
    print(f"  {'fail_ratio':38s} {failed / attempted:14.6g} 1  "
          f"({failed}/{attempted} tasks)")
    for f in rep["failures"][:20]:
        print(f"  FAILED {f}")
    checked = rep["reference_checked"]
    print(f"  digest {run_digest(rep['digests'])} over "
          f"{len(rep['digests'])} tasks; "
          + (f"{checked} checked against the reference" if checked
             else "not checked (reference covers the default seed only)"))
    for k, hist in traffic.items():
        print(f"  traffic {k}: {hist}")
    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "why": rep["why"],
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "attempted": attempted, "failed": failed,
              "failures": rep["failures"], "traffic": traffic,
              "digest": run_digest(rep["digests"]),
              "reference_checked": checked}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
