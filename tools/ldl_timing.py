"""Time the Newton solve's linear layer: the sparse LDL^T plan build and solve.

    python tools/ldl_timing.py

Cases: paths of 101, 401, 1601 and 6401 vertices, and uniform m x m grids
for m in 12, 16, 24, 40 and 60.  Each solves a Newton Hessian
diag(D) + B' diag(c) B with edge coefficients c = e^U(-30, 30) (seeded).
One line per case: vertices, elimination rounds, state entries
(2 n + factor slots), the plan build time and the solve time, each the
process-time minimum over REPEAT tries; a solve try times a batch of
calls lasting about 20 ms.  It uses the library and the test graph builders
of its own checkout (`src/`, `tests/conftest.py`, which needs the test
extras): run it on two checkouts, alternately, to compare them.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import grid_graph  # noqa: E402
from graphsand import build_path  # noqa: E402
from graphsand.ldl import EliminationPlan  # noqa: E402

REPEAT = 7  # tries per timing; the minimum is printed

CASES = [(f"path{n}", lambda n=n: build_path(n)) for n in (101, 401, 1601, 6401)] \
    + [(f"grid{m}", lambda m=m: grid_graph(m)) for m in (12, 16, 24, 40, 60)]


def newton_system(g, rng):
    """(diag, off, rhs) of diag(D) + B' diag(c) B, c = e^U(-30, 30)."""
    c = np.exp(rng.uniform(-30.0, 30.0, g.n_edges))
    diag = g.degrees + np.bincount(g.edge_index.ravel(), weights=c.repeat(2),
                                   minlength=g.n_vertices)
    return diag, -c, rng.normal(size=g.n_vertices)


def least(fn, repeat: int = REPEAT, calls: int = 1) -> float:
    """Process-time minimum over `repeat` tries of `calls` calls, per call."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        for _ in range(calls):
            fn()
        best = min(best, (time.process_time() - start) / calls)
    return best


def main() -> int:
    for name, make in CASES:
        g = make()
        system = newton_system(g, np.random.default_rng(0))
        build = least(lambda: EliminationPlan(g))
        plan = EliminationPlan(g)
        calls = max(1, round(0.02 / least(lambda: plan.solve(*system), 1)))
        solve = least(lambda: plan.solve(*system), calls=calls)
        print(f"{name:9s} n={g.n_vertices:5d}  rounds={len(plan.rounds):4d}  "
              f"state={2 * g.n_vertices + plan.n_slots:6d}  "
              f"build {build * 1e3:8.2f} ms  solve {solve * 1e6:9.1f} us", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
