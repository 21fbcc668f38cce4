"""Host-speed probe: a fixed piece of pure-Python work, timed now.

The benchmark's host is a shared VM whose speed changes by up to 1.8x over
seconds to minutes, for every piece of code alike (see NOTES.md,
"Steadiness").  The worker runs `probe()` between tasks, outside the timed
region, and scales each task's latency by ``NOMINAL_S / probe time``.  So
the end-to-end times read as if the host ran at the speed where one probe
takes NOMINAL_S.

The probe never calls the engine: dict lookups with tuple keys and integer
adds, the operations the engine spends its time on.  The garbage collector is
off while it runs, so engine garbage is never collected, and charged, inside
the probe.
"""

from __future__ import annotations

import gc
import random
import time

# The probe's best-of-3 time on the 2-vCPU Xeon (2.1 GHz) VM the bounds were
# set on, in its fast state (Python 3.11).
NOMINAL_S = 0.0004
PROBE_REPEATS = 3

_TABLE = {(i, i * 7 % 13): i for i in range(2048)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def _pass() -> int:
    t = _TABLE
    s = 0
    for a, b in _KEYS:
        s += t.get((b, a), a) + t[(a, b)]
    return s


def probe() -> float:
    """Seconds the fixed work takes now: the best of PROBE_REPEATS passes."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _pass()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()
