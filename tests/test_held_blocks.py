"""Held blocks against one projection per step.

solve_collapse takes the steps on which the projector's active list holds
as blocks (`DykstraProjector.hold`); `reference.collapse_per_step` projects
every step.  The two must agree bit for bit in sample times, states, step
times, mass residuals and events, give the same numpy warnings in the same
order, and raise the same TruncationError, ProjectionError or ValueError at
the same step.
"""

import copy
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from graphsand import ConstraintSet, DykstraProjector, ProjectionError, \
    TruncationError, build_truncated_z, evolution, field_values, \
    max_relative_slope, proximal, solve_collapse
from graphsand.evolution import time_grid
from graphsand.proximal import CONSTRAINT_KINDS
from graphsand.scenario import load_scenario, run_scenario
from conftest import solver_graphs
from reference import collapse_per_step

PROPERTY = settings(max_examples=300, deadline=None, database=None)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# a datum's value at one vertex, in units of the bounds' scale: signed
# zeros, values within the bounds' slopes and well past them
VALUES = [0.0, -0.0, 0.5, 1.5, 3.0, -2.0, 4.0, 6.0]
# the scale of bounds and datum: plain, bounds below the projector's
# tolerance, fields whose rounding exceeds it, and gaps that overflow
SCALES = [1.0, 1.0, 1e-12, 1e300, 2.5e307, 2.9e307]


def _datum(draw, g, scale):
    """Drawn values, zero (of either sign) off a drawn support: on a Z
    window a run of labels about a drawn centre, which may reach the guard
    band, elsewhere a drawn subset of the vertices."""
    values = st.sampled_from(VALUES)
    if g.guard_index:
        radius = (g.n_vertices - 1) // 2
        centre = draw(st.integers(-radius, radius))
        width = draw(st.integers(0, 3))
        on = [abs(int(v) - centre) <= width for v in g.vertices]
    else:
        on = draw(st.lists(st.booleans(), min_size=g.n_vertices,
                           max_size=g.n_vertices))
    return np.array([draw(values) if x else draw(st.sampled_from([0.0, -0.0]))
                     for x in on]) * scale


@st.composite
def collapse_cases(draw):
    g = draw(solver_graphs())
    kinds = [ConstraintSet.from_kind(g, kind).bounds for kind in CONSTRAINT_KINDS]
    bounds = draw(st.sampled_from(kinds + [np.linspace(0.5, 1.5, g.n_edges)]))
    scale = draw(st.sampled_from(SCALES))
    K = ConstraintSet(g, bounds * scale)
    tol = draw(st.sampled_from([1e-10, 1e-9]))
    dt = draw(st.sampled_from([0.1, 0.05, 1 / 64, 0.01]))
    return g, K, _datum(draw, g, scale), dt, tol, draw(st.integers(1, 7))


def _run(solver, case):
    """The solver's trajectory, or its error and the input of its last
    projection (the step it failed at), and the numpy warnings it gave,
    recorded in order rather than raised."""
    g, K, u0, dt, tol, every = case
    original = DykstraProjector.project
    last = [None]

    def project(self, z):
        last[0] = np.array(z)
        return original(self, z)

    DykstraProjector.project = project
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = solver(g, K, u0, dt, tol=tol, sample_every=every)[1], None
        except (TruncationError, ProjectionError, ValueError) as exc:
            out = exc, last[0]
        finally:
            DykstraProjector.project = original
    return (*out, [(w.category, str(w.message)) for w in caught])


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def _copy(proj):
    """A projector that goes on from proj's state without touching it."""
    out = copy.copy(proj)
    out.mu = list(proj.mu)
    return out


@PROPERTY
@given(collapse_cases(), st.sampled_from([1, 64, evolution._FREE_CELLS]),
       st.sampled_from([3, 40, 5000]))
def test_collapse_matches_one_projection_per_step(case, cells, sweeps):
    # a cell budget that makes blocks of one step, short ones, and the
    # default; a sweep budget that fails most projections holding a
    # multiplier, some, or none
    saved, budget = evolution._FREE_CELLS, proximal.MAX_SWEEPS
    evolution._FREE_CELLS, proximal.MAX_SWEEPS = cells, sweeps
    try:
        got, got_last, got_warned = _run(solve_collapse, case)
        want, want_last, want_warned = _run(collapse_per_step, case)
    finally:
        evolution._FREE_CELLS, proximal.MAX_SWEEPS = saved, budget
    assert got_warned == want_warned
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert (got_last is None) == (want_last is None)
        if want_last is not None:
            assert _bits(got_last) == _bits(want_last)
        return
    for name in ("times", "states", "step_times", "mass_residuals"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.events == want.events


def test_held_blocks_take_almost_every_collapse_step(monkeypatch):
    # the active list of each shipped collapse holds from its first
    # projection on, or changes once, so its 6667 steps take one or two
    # blocks, each run to the end or to the step that changes the list,
    # and project() runs only where a block starts or stops
    calls = {}
    for method in ("hold", "project"):
        def counted(self, *args, original=getattr(DykstraProjector, method),
                    key=method):
            calls[key] += 1
            return original(self, *args)
        monkeypatch.setattr(DykstraProjector, method, counted)
    for name, holds in (("p4_collapse_b1", 1), ("p4_collapse_b15", 1),
                        ("p4_collapse_b2", 2), ("p6_collapse", 2)):
        calls.update(hold=0, project=0)
        traj = run_scenario(load_scenario(SCENARIOS / f"{name}.json"))
        assert len(traj.step_times) == 6667
        assert calls == {"hold": holds, "project": holds}, name


def test_hold_takes_no_row_outside_the_guard_band():
    # a collapse on a Z window whose active edges reach the guard vertex 2:
    # the same two steps are held with no guard band, and none with it
    g = build_truncated_z(3)
    K = ConstraintSet.from_kind(g, "uniform")
    projectors = [DykstraProjector(g, K), DykstraProjector(g, K)]
    for proj in projectors:
        v, t = field_values(g, {"1": 1.5}), 0.5
        for _ in range(3):
            v, t = proj.project(v + 0.01 * (v / t)), t + 0.01
    assert v[g.vertex_id("2")] != 0.0 and g.vertex_id("2") in g.guard_index
    times = np.array([t, t + 0.01, t + 0.02])
    free, guarded = projectors
    assert free.hold(v, times, None, [], 0.0)[0] == 2
    mu = list(guarded.mu)
    k, rows, moved, live = guarded.hold(v, times, None, list(g.guard_index), 0.0)
    assert k == 0 and guarded.mu == mu
    # a band that vertex 2 clears at the start (0.197) but not after one
    # step (0.207) or two (0.217): 2 is an end of the active list, so the
    # guard is checked there after the sweep, and the multipliers of a
    # refused row are restored
    one = _copy(guarded)
    one.project(v + 0.01 * (v / t))
    for limit, want in ((0.2, 0), (0.21, 1)):
        held = _copy(guarded)
        assert held.hold(v, times, None, list(g.guard_index), limit)[0] == want
        assert held.mu == (mu if want == 0 else one.mu)


def test_hold_checks_what_no_step_moves_once():
    # under a source field, from the state of the test above with the
    # guard band on the side away from the pile: a guard vertex the field
    # moves off the ends, a guard vertex that starts outside the band, and
    # a gap past its limit on an edge whose ends no step moves each refuse
    # the first row; without them both rows hold
    g = build_truncated_z(3)
    K = ConstraintSet.from_kind(g, "uniform")
    proj = DykstraProjector(g, K)
    v, t = field_values(g, {"1": 1.5}), 0.5
    for _ in range(3):
        v, t = proj.project(v + 0.01 * (v / t)), t + 0.01
    times = np.array([t, t + 0.01, t + 0.02])
    guard = [g.vertex_id("-2"), g.vertex_id("-3")]
    assert set(guard) <= set(g.guard_index)
    top, wide = field_values(g, {"1": 1.0}), field_values(g, {"1": 1.0, "-3": 1e-3})
    past, over = v.copy(), v.copy()
    past[g.vertex_id("-3")] = 0.5  # a guard vertex, not at a live edge
    over[g.vertex_id("-2")] = 1.5  # past the limit on the edge to -1
    for start, f, band, want in (
            (v, top, guard, 2), (v, wide, [], 2), (v, wide, guard, 0),
            (past, top, [], 2), (past, top, guard, 0), (over, top, [], 0)):
        assert _copy(proj).hold(start, times, f, band, 0.0)[0] == want


@PROPERTY
@given(collapse_cases(), st.integers(1, 8) | st.sampled_from([64, 400]),
       st.data())
def test_hold_takes_the_rows_project_would_give(case, m, data):
    # from every step of a collapse that holds a multiplier, a copy of the
    # projector holds up to m steps (long blocks check the edges off the
    # ends row by row deep into a block) under the collapse drive or under a
    # drawn source field: each row it takes is project()'s result on a step
    # that keeps the active list (the support it starts from) and clears
    # the guard band, and it leaves the multipliers, the active list and
    # abs_gaps as those project() calls leave them
    g, K, u0, dt, tol, _ = case
    guard = list(g.guard_index)
    fv = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if data.draw(st.booleans()):  # at the bounds' scale, which may overflow
            fv = np.zeros(g.n_vertices)
            for x in data.draw(st.lists(st.integers(0, g.n_vertices - 1),
                                        max_size=3)):
                fv[x] = data.draw(st.sampled_from(VALUES)) * K.bounds.max()
        L = max_relative_slope(u0, K)
        if not 1.0 < L < np.inf:
            return
        grid = time_grid(1.0 / L, 1.0, dt).tolist()
        u, proj = u0 / L, DykstraProjector(g, K, tol)
        for n in range(len(grid) - 1):
            if proj.holds_multipliers():
                held, check = _copy(proj), _copy(proj)
                k, rows, moved, live = held.hold(u, np.array(grid[n:n + m + 1]),
                                                 fv, guard, 0.0)
                support = [e for e in proj._active if proj.mu[e] != 0.0]
                v = u
                for r in range(k):
                    t0, t1 = grid[n + r], grid[n + r + 1]
                    v = check.project(v + (t1 - t0) * (v / t0 if fv is None else fv))
                    assert check._active == support
                    assert not any(v[i] != 0.0 for i in guard)
                    assert _bits(rows[r + 1]) == _bits(v)
                    assert _bits(moved[r]) == _bits(check.abs_gaps[live])
                assert held.mu == check.mu
                if k:
                    assert _bits(held.abs_gaps) == _bits(check.abs_gaps)
                    assert held._active == check._active
            t0, t1 = grid[n], grid[n + 1]
            try:
                u = proj.project(u + (t1 - t0) * (u / t0))
            except (ProjectionError, ValueError):
                return
            if any(u[i] != 0.0 for i in guard):
                return
