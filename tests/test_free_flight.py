"""Growth's blocks against one projection per step.

solve_growth takes the steps on which no slope binds as one block (a
running sum the projector certifies, free flight), and, once its active
list has held for a while, the steps that keep it as held blocks;
`reference.growth_per_step` projects every step.  The two must agree bit
for bit in sample times, states, step times, mass residuals and events,
give the same numpy warnings in the same order, and raise the same
TruncationError or ValueError at the same step.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from graphsand import ConstraintSet, DykstraProjector, SourceSchedule, \
    TruncationError, build_graph, build_path, build_truncated_z, evolution, \
    proximal, solve_growth
from graphsand.proximal import CONSTRAINT_KINDS
from conftest import solver_graphs
from reference import growth_per_step

PROPERTY = settings(max_examples=300, deadline=None, database=None)

# a source value at one vertex: signed zeros, growth, excavation, steep
SOURCE_VALUES = [-0.0, 0.0, 0.5, 1.0, 4.0, 10.0, 40.0, -1.0, -3.0]
# an edge gap of the initial datum, in units of the edge's bound c; the
# drawn slack puts an edge between c + tol and c + 1e-8
GAP_SHARES = [0.0, -0.0, 0.25, -0.5, 1.0, -1.0]


def _tree_datum(draw, g, K, tol):
    """Drawn gaps on the edges of a tree, each a share of its bound or its
    bound plus a slack above tol, with signed zeros left where they fall."""
    c = K.bounds
    u = np.full(g.n_vertices, np.nan)
    u[0] = draw(st.sampled_from([0.0, -0.0, 0.5]))
    slack = st.sampled_from([2 * tol, 1e-9, 5e-9, 9e-9])
    while np.isnan(u).any():
        for e, (i, j) in enumerate(g.edge_index.tolist()):
            if np.isnan(u[i]) == np.isnan(u[j]):
                continue
            if draw(st.booleans()):
                gap = draw(st.sampled_from(GAP_SHARES)) * c[e]
            else:
                gap = draw(st.sampled_from([1.0, -1.0])) * (c[e] + draw(slack))
            if np.isnan(u[j]):
                u[j] = u[i] + gap
            else:
                u[i] = u[j] - gap
    return u


def _datum(draw, g, K, tol):
    if g.guard_index:  # a tent about the origin of a Z window, zero elsewhere
        u = np.array([-0.0 if draw(st.booleans()) else 0.0
                      for _ in range(g.n_vertices)])
        height = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]))
        for v in g.vertices:
            if abs(int(v)) < height:
                u[g.vertex_id(v)] = height - abs(int(v))
        return u
    if g.n_edges == g.n_vertices - 1:
        return _tree_datum(draw, g, K, tol)
    share = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5])
    return np.array([draw(share) for _ in range(g.n_vertices)]) * K.bounds.min()


def _segments(draw, g, T):
    """Segments over drawn breakpoints, each span a segment or a gap; a
    segment's field is a few point values or one value everywhere."""
    marks = sorted(set(draw(st.lists(st.integers(0, 40), min_size=2, max_size=7))))
    out = []
    for a, b in zip(marks, marks[1:]):
        if draw(st.integers(0, 2)) == 0:
            continue
        if draw(st.integers(0, 3)) == 0:
            vals = np.full(g.n_vertices, draw(st.sampled_from([3.0, -0.0, 1e308])))
        else:
            vals = np.zeros(g.n_vertices)
            for x in draw(st.lists(st.integers(0, g.n_vertices - 1),
                                      min_size=1, max_size=3)):
                vals[x] = draw(st.sampled_from(SOURCE_VALUES))
        out.append((a * T / 32, b * T / 32, vals))
    return out


@st.composite
def growth_cases(draw):
    g = draw(solver_graphs())
    kinds = [ConstraintSet.from_kind(g, kind) for kind in CONSTRAINT_KINDS]
    K = draw(st.sampled_from(
        kinds + [ConstraintSet(g, np.linspace(0.5, 1.5, g.n_edges))]))
    tol = draw(st.sampled_from([1e-10, 1e-9]))
    dt = draw(st.sampled_from([0.05, 1 / 16, 0.03, 0.1]))
    T = dt * draw(st.integers(1, 80)) + draw(st.sampled_from([0.0, dt / 3]))
    f = SourceSchedule(g, tuple(_segments(draw, g, T)))
    return g, K, _datum(draw, g, K, tol), f, T, dt, tol, draw(st.integers(1, 7))


# a step adds h * 0.0 to every vertex, which turns -0.0 into +0.0
CYCLE = build_graph([("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v2", "v3", 1.0),
                     ("v3", "v0", 1.0)])
SIGNED_ZERO = (CYCLE, ConstraintSet.from_kind(CYCLE, "uniform"),
               np.array([0.0, 0.0, 0.0, -0.0]), SourceSchedule.zero(CYCLE),
               0.05, 0.05, 1e-10, 1)
# held blocks from the step after the first binds (_HELD_AFTER = 0 lifts
# the room rule for its 10-step field): a second source at x10, outside
# the neighbourhood of the pile at x3, whose edges bind mid-block, so the
# bulk check of the columns refuses the row
PATH = build_path(12)
SECOND_SOURCE = (PATH, ConstraintSet.from_kind(PATH, "uniform"), np.zeros(12),
                 SourceSchedule(PATH, ((0.0, 1.0, {"x3": 10.0, "x10": 4.0}),)),
                 0.5, 0.05, 1e-10, 1)
# a held pile about the origin of a Z window that grows into the guard band
WINDOW = build_truncated_z(5)
INTO_GUARD = (WINDOW, ConstraintSet.from_kind(WINDOW, "uniform"), np.zeros(11),
              SourceSchedule(WINDOW, ((0.0, 5.0, {"0": 10.0}),)),
              2.0, 0.05, 1e-10, 1)
# -0.0 in the source at an end of the held pile (x4) and at a vertex whose
# start is -0.0 (x6), which stays -0.0
SHORT = build_path(6)
NEGATIVE_ZERO = (SHORT, ConstraintSet.from_kind(SHORT, "uniform"),
                 np.array([-0.0, 0.0, 0.0, 0.0, 0.0, -0.0]),
                 SourceSchedule(SHORT, ((0.0, 1.0, {"x3": 10.0, "x4": -0.0,
                                                    "x6": -0.0}),)),
                 0.5, 0.05, 1e-10, 1)


def _run(solver, case):
    """The solver's trajectory, or its error and the input of its last
    projection (the step it failed at), and the numpy warnings it gave.

    The warnings are recorded, not raised, so a run that warns (a state or
    a mass residual on its way to overflow) goes on: two runs that give the
    same warnings in the same order and the same result also raise the same
    first warning under the suite's `error::RuntimeWarning` filter."""
    g, K, u0, f, T, dt, tol, every = case
    original = DykstraProjector.project
    last = [None]

    def project(self, z):
        last[0] = np.array(z)
        return original(self, z)

    DykstraProjector.project = project
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = solver(g, K, u0, f, T, dt, tol=tol, sample_every=every), None
        except (TruncationError, ValueError) as exc:
            out = exc, last[0]
        finally:
            DykstraProjector.project = original
    return (*out, [(w.category, str(w.message)) for w in caught])


def _raised(solver, case):
    """The error the solver raises under the suite's warning filter."""
    g, K, u0, f, T, dt, tol, every = case
    try:
        solver(g, K, u0, f, T, dt, tol=tol, sample_every=every)
    except (TruncationError, ValueError, RuntimeWarning) as exc:
        return exc
    return None


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@PROPERTY
@given(growth_cases(), st.sampled_from([1, 64, evolution._FREE_CELLS]),
       st.sampled_from([0, 1, 32]), st.sampled_from([0, proximal._KERNEL_AFTER]))
@example(SIGNED_ZERO, evolution._FREE_CELLS, 32, proximal._KERNEL_AFTER)
@example(SECOND_SOURCE, evolution._FREE_CELLS, 0, proximal._KERNEL_AFTER)
@example(INTO_GUARD, evolution._FREE_CELLS, 0, proximal._KERNEL_AFTER)
@example(NEGATIVE_ZERO, evolution._FREE_CELLS, 0, proximal._KERNEL_AFTER)
@example(SECOND_SOURCE, evolution._FREE_CELLS, 0, 0)
@example(INTO_GUARD, evolution._FREE_CELLS, 0, 0)
@example(NEGATIVE_ZERO, evolution._FREE_CELLS, 0, 0)
def test_growth_matches_one_projection_per_step(case, cells, after, kernel):
    # a cell budget of 1 or 64 state cells splits each block into blocks
    # of one step or a few steps, and the full budget lets a block run to
    # the end of its source field; held blocks start on any step that
    # holds a multiplier where the field holds for 0, 1 or 32 more steps
    # (_HELD_AFTER's room rule), and take their rows in the row kernel from
    # the first or after the default count
    saved = evolution._FREE_CELLS, evolution._HELD_AFTER, proximal._KERNEL_AFTER
    evolution._FREE_CELLS, evolution._HELD_AFTER, proximal._KERNEL_AFTER = \
        cells, after, kernel
    try:
        got, got_last, got_warned = _run(solve_growth, case)
    finally:
        evolution._FREE_CELLS, evolution._HELD_AFTER, proximal._KERNEL_AFTER = \
            saved
    want, want_last, want_warned = _run(growth_per_step, case)
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


@PROPERTY
@given(growth_cases(), st.integers(1, 12), st.sampled_from([0.05, 0.25, 1.0]))
def test_hold_under_a_source_takes_what_project_returns_unchanged(case, m, h):
    # m steps of length h from the drawn datum under the first segment's
    # field: hold takes exactly the leading rows that single projections
    # return bit for bit inside the guard band, and leaves abs_gaps and the
    # (empty) active list as they would
    g, K, u0, f, _, _, tol, _ = case
    fv = f.segments[0][2] if f.segments else np.zeros(g.n_vertices)
    times = np.arange(m + 1) * h
    guard = list(g.guard_index)
    proj, ref = DykstraProjector(g, K, tol), DykstraProjector(g, K, tol)
    k, rows, moved, live = proj.hold(u0, times, fv, guard, 0.0)
    want, gaps, active = [u0], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in zip(times, times[1:]):
            z = want[-1] + (t1 - t0) * fv
            if not np.isfinite(z).all() or (z[guard] != 0).any() \
                    or _bits(ref.project(z)) != _bits(z):
                break
            want.append(z)
            gaps.append(ref.abs_gaps)
            active = ref._active
    assert k == len(want) - 1
    assert _bits(rows) == _bits(np.array(want))
    if k:
        assert _bits(moved) == _bits(np.array(gaps)[:, live])
        assert _bits(proj.abs_gaps) == _bits(gaps[-1])
        assert proj._active == active == []
    else:
        assert proj.abs_gaps is None


def test_free_flight_hands_over_at_the_guard_and_at_overflow():
    # a source switched on at a guard vertex after a free run, a uniform
    # free run until the state overflows, and one whose mass residuals
    # overflow (inf - inf) from the first step: under the suite's filter
    # each fails at the step, with the message, of single steps, and
    # recorded they give the same warnings
    z = build_truncated_z(4)
    light, path = build_path(5, [0.1] * 4), build_path(5)
    cases = [
        (z, ConstraintSet.from_kind(z, "uniform"), np.zeros(9),
         SourceSchedule(z, ((0.5, 1.0, {"4": 0.25}),)), 1.0, 0.1, 1e-10, 1),
        (light, ConstraintSet.from_kind(light, "uniform"), np.zeros(5),
         SourceSchedule.constant(light, np.full(5, 1e308)), 2.0, 0.125, 1e-10, 3),
        (path, ConstraintSet.from_kind(path, "uniform"), np.zeros(5),
         SourceSchedule.constant(path, np.full(5, 1e308)), 2.0, 0.5, 1e-10, 1),
    ]
    raised = ("truncation too small", "overflow encountered in add",
              "overflow encountered in dot")
    for case, message in zip(cases, raised):
        got, want = _raised(solve_growth, case), _raised(growth_per_step, case)
        assert type(got) is type(want) and message in str(want)
        assert str(got) == str(want)
        got, got_last, got_warned = _run(solve_growth, case)
        want, want_last, want_warned = _run(growth_per_step, case)
        assert type(got) is type(want) and str(got) == str(want)
        assert _bits(got_last) == _bits(want_last)
        assert got_warned == want_warned
    assert (RuntimeWarning, "invalid value encountered in scalar subtract") \
        in want_warned
