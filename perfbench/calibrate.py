"""A fixed reference kernel that times the machine, not graphsand.

On a shared host the speed of one vCPU drifts, for every program alike:
by a third or more between minutes, and in steps of a second or so within
a run.  The benchmark times this kernel before the first job and after
every job, and reports each job's time scaled to a fixed reference speed:

    scaled = wall * REFERENCE_S / (mean of the kernel times before and after)

The kernel does what the jobs do, in fixed amounts: interpreter work on
dicts, lists and strings, many small numpy operations and a few dense
solves.  It never imports graphsand, so no change to the library can
change it; a library change that makes a job slower makes its scaled time
slower by the same share.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine, a 2-vCPU Intel Xeon VM with
# Python 3, numpy and OpenBLAS on one thread.  It only sets the scale, so
# that scaled times read close to wall times on that machine.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((150, 150)) + 150.0 * np.eye(150)
_RHS = _RNG.random(150)
_SMALL = _RNG.random(64)


def measure() -> float:
    """Seconds one run of the kernel takes now, about 15 ms."""
    start = time.perf_counter()
    table = {}
    for k in range(6000):
        table[k % 97] = table.get(k % 97, 0) + k
    rows = [f"{k},{k * 0.5:.6g}" for k in range(1500)]
    parsed = [float(r.split(",")[1]) for r in rows]
    x = _SMALL.copy()
    for _ in range(600):
        x = np.clip(x - 0.01 * np.diff(x, prepend=x[0]), 0.0, None)
    for _ in range(3):
        np.linalg.solve(_MATRIX, _RHS + parsed[0] + len(table))
    return time.perf_counter() - start
