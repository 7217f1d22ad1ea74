"""Time the projector's held steps, DykstraProjector.hold, beside project().

    python tools/hold_timing.py

States: the seed-7 transport jobs grid6, grid8 and z52 of
perfbench/workloads.py (the first job of each name), stepped one
projection per step; from each, the first state that holds a multiplier
and keeps its active list for the next ROWS steps.  One line per state:
the vertices and the ends of the active list, then the time of one
project() on the state's next step, and of one hold call of 0, 1 and ROWS
rows on a warm plan (built, with its fold table, by an earlier call) and
on a fresh one (the plan built in the call).  Each time is the
process-time minimum over REPEAT tries of CALLS calls, per call, every
call on its own copy of the recorded projector.  It uses the library and the benchmark mixes of
its own checkout (`src/`, `perfbench/`): run it on two checkouts,
alternately, to compare them.
"""

from __future__ import annotations

import copy
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from graphsand import DykstraProjector  # noqa: E402
from graphsand.evolution import time_grid  # noqa: E402
from graphsand.scenario import parse_scenario  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

JOBS = ("grid6", "grid8", "z52")
ROWS = 10      # rows of the longest hold call timed
REPEAT = 30    # tries per timing; the minimum is printed
CALLS = 40     # calls per try


def recorded(tag: str):
    """(projector, start, times, f, guard) of the job's first state that
    holds a multiplier and keeps its active list for ROWS steps."""
    job = next(j for j in generate("transport", 7) if j.name.endswith(tag))
    cfg = parse_scenario(json.dumps(job.scenario))
    g, f = cfg.graph, cfg.source
    grid = time_grid(0.0, cfg.T, cfg.dt, f.boundaries())
    proj, u = DykstraProjector(g, cfg.constraint_set(), cfg.tol), cfg.u0.copy()
    states = []
    for t0, t1 in zip(grid.tolist(), grid[1:].tolist()):
        states.append((_copy(proj), u, t0))
        u = proj.project(u + (t1 - t0) * f(t0))
    for n, (proj, u, t0) in enumerate(states):
        after = [p._active for p, _, _ in states[n + 1:n + ROWS + 1]]
        if proj.holds_multipliers() and len(after) == ROWS \
                and all(a == proj._active for a in after):
            return proj, u, grid[n:n + ROWS + 1], f(t0), list(g.guard_index)
    raise RuntimeError(f"{job.name}: no state holds its list for {ROWS} steps")


def _copy(proj):
    """A projector that goes on from proj's state without touching it."""
    out = copy.copy(proj)
    out.mu = list(proj.mu)
    return out


def least(make, run) -> float:
    """Process-time minimum over REPEAT tries of CALLS calls of run, each on
    an object from make (made before the clock starts), per call."""
    best = float("inf")
    for _ in range(REPEAT):
        objs = [make() for _ in range(CALLS)]
        gc.disable()
        start = time.process_time()
        for obj in objs:
            run(obj)
        best = min(best, (time.process_time() - start) / CALLS)
        gc.enable()
    return best


def main() -> int:
    for tag in JOBS:
        proj, u, times, f, guard = recorded(tag)
        z = u + (times[1] - times[0]) * f
        warm = _copy(proj)
        warm.hold(u, times[:2], f, guard, 0.0)  # builds the plan and its fold

        def warm_copy():
            warm._plan.held = 0  # the generic row loop, not the row kernel
            out = _copy(warm)
            out.mu, out._active, out.abs_gaps = list(proj.mu), proj._active, \
                proj.abs_gaps
            return out

        def fresh_copy():
            out = _copy(proj)
            out._plan_key = out._plan = None
            return out

        line = f"{tag:6s} n={proj.graph.n_vertices:4d} " \
               f"ends={len(warm._plan.ends):3d}  " \
               f"project {least(lambda: _copy(proj), lambda p: p.project(z)) * 1e6:6.1f} us"
        for name, make in (("warm", warm_copy), ("fresh", fresh_copy)):
            took = [least(make, lambda p, r=r: p.hold(u, times[:r + 1], f, guard, 0.0))
                    for r in (0, 1, ROWS)]
            line += f"  hold {name} 0/1/{ROWS} rows " \
                    + "/".join(f"{s * 1e6:.1f}" for s in took) + " us"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
