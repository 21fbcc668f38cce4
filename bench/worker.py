"""One workload process: set up, then a closed loop of tasks.

Run by `run.py`; one process and one thread per workload.  The next task
starts when the previous one returns.  Prints one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N --t0 MONOTONIC
        (--seconds S | --tasks K | --setup-only) [--trace]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so the reported set-up time covers interpreter start, `import
znfree`, building the towers and turning inputs into elements.

Host speed: the worker runs `hostspeed.probe()` once after set-up and, in the
loop, before a task whenever PROBE_EVERY_S have passed since the last probe,
and once after the last task; all outside the timed regions.  A task's
`scaled` latency is its latency times NOMINAL_S over the mean of the probes
just before and just after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

REFERENCE = HERE / "reference"
OUT = HERE / "out"
DEFAULT_SEED = 0
PROBE_EVERY_S = 0.05


def load_reference(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    path = REFERENCE / f"{workload}.json"
    if not path.exists():
        return []
    return json.loads(path.read_text())["digests"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--tasks", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the digest comparison (writing a reference)")
    args = ap.parse_args(argv)

    import znfree  # noqa: F401  (part of set-up)
    import workloads

    tracer = None
    tower_names: dict = {}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(tower_names)
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    tower_names.update({id(t): n for n, t in wl.towers.items()})
    setup_s = time.monotonic() - args.t0
    # imported here so that building the probe's table is not set-up time
    from hostspeed import NOMINAL_S, probe
    setup_probe_s = probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "setup_probe_s": setup_probe_s}))
        return 0

    reference = [] if args.no_reference else load_reference(args.workload,
                                                            args.seed)
    latencies: list[float] = []
    digests: list[str] = []
    failures: list[str] = []
    traffic: list[dict] = []
    probes: list[float] = []
    probe_before: list[int] = []
    last_probe = float("-inf")
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if args.tasks is not None:
            if i >= args.tasks:
                break
        elif clock() - start >= args.seconds:
            break
        if tracer:
            tracer.enabled = False
        inp = wl.inputs(i)
        problems = []
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = clock()
        probe_before.append(len(probes) - 1)
        if tracer:
            tracer.enabled = True
            tracer.task_id = i
        t0 = clock()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a task that raises is a failed task
            out = None
            problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(limit=-2)
        latencies.append(clock() - t0)
        if tracer:
            tracer.enabled = False
        if out is not None:
            try:
                problems += wl.check(inp, out)
                digest = wl.digest(inp, out)
                traffic.append(wl.traffic(inp, out))
            except Exception as exc:
                digest = ""
                problems.append(f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(limit=-2)
            digests.append(digest)
            if i < len(reference) and reference[i] != digest:
                problems.append("digest differs from the reference")
        else:
            digests.append("")
        if problems:
            failures.append(f"task {i}: " + "; ".join(problems))
        i += 1
    loop_s = clock() - start
    probes.append(probe())
    scaled = [x * 2 * NOMINAL_S / (probes[j] + probes[j + 1])
              for x, j in zip(latencies, probe_before)]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "why": wl.why,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "tasks": i,
        "loop_s": loop_s,
        "task_s": sum(latencies),
        "latencies": latencies,
        "scaled": scaled,
        "probes": len(probes),
        "failures": failures,
        "digests": digests,
        "reference_checked": min(i, len(reference)),
        "traffic": traffic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.name)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
