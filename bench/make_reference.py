#!/usr/bin/env python3
"""Write the reference digests the benchmark checks on the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's first REFERENCE_TASKS[workload] tasks on seed 0 and
stores one sha256 per task in bench/reference/<workload>.json.  A task that
fails its independent checks here is listed in the file's "failures" and
keeps its digest: the reference records the engine's answers as they are.
Regenerate only when a change is meant to alter answers.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, spawn
from worker import DEFAULT_SEED

# about twice the tasks a 30 s run completes at the commit that wrote them
REFERENCE_TASKS = {"nf-deep": 2200, "reduce": 400, "free-base": 2200}


def main(argv) -> int:
    for wl in argv or WORKLOADS:
        n = REFERENCE_TASKS[wl]
        rep = spawn(["--workload", wl, "--seed", str(DEFAULT_SEED),
                     "--tasks", str(n), "--no-reference"],
                    deadline=time.monotonic() + 3600)
        out = HERE / "reference" / f"{wl}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seed": DEFAULT_SEED, "tasks": n,
                                   "failures": rep["failures"],
                                   "digests": rep["digests"]}, indent=0)
                       + "\n")
        print(f"{wl}: {n} digests, {len(rep['failures'])} failures -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
