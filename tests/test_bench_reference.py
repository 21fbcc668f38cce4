"""The benchmark's seed-0 reference digests, checked in the test suite.

bench/workloads.py turns (seed, task index) into inputs, runs the task on
the engine and hashes the answers; bench/reference/ holds the hash of every
seed-0 task.  The benchmark compares them only when it runs, so this test
runs the first tasks of each workload and compares their digests.  It
writes nothing under bench/.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# every traced reduce and nf-deep task, and a prefix of free-base
TASKS = {"reduce": 24, "nf-deep": 200, "free-base": 60}


@pytest.fixture(scope="module")
def workloads():
    path = sys.path[:]
    bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = bytecode
    return workloads


@pytest.mark.parametrize("name", sorted(TASKS))
def test_seed0_digests_match_the_reference(workloads, name):
    ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    assert ref["seed"] == 0 and ref["failures"] == []
    wl = workloads.WORKLOADS[name](0)
    wl.setup()
    differ = []
    for i in range(TASKS[name]):
        inp = wl.inputs(i)
        if wl.digest(inp, wl.run(inp)) != ref["digests"][i]:
            differ.append(i)
    assert differ == [], f"{name}: tasks whose digest differs"
