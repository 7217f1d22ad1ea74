"""Property tests of the warm-started Dykstra projector.

Solvers keep one projector per run and carry its multipliers and its list
of active edges from step to step.  A chain of warm calls on growth-like
inputs (z = v + h f) and collapse-like inputs (z = v (1 + h / t)) must land
on the exact projection at every call, and the gaps the projector keeps for
the event bookkeeping must be those of the state it returned.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from graphsand import (ConstraintSet, SourceSchedule, build_graph,
                       max_relative_slope, nu_norm, project_oracle,
                       solve_collapse, solve_growth)
from graphsand.calculus import edge_gaps
from graphsand.evolution import _EVENT_BAND
from graphsand.proximal import DykstraProjector

PROPERTY = settings(max_examples=150, deadline=None, database=None)
TOL = 1e-12      # projector tolerance, well below the agreement asked for
AGREE = 1e-9     # weighted-norm distance to the oracle at every call
STEPS = 5


@st.composite
def constrained_graphs(draw, max_n=6, max_edges=12):
    """A random connected graph (random tree plus chords, at most 12 edges,
    so the oracle applies) with weights k/4 and a random constraint set."""
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n))
    for a, b in chords:
        if a != b and len(pairs) < max_edges:
            pairs.add((min(a, b), max(a, b)))
    weights = draw(st.lists(st.integers(1, 16), min_size=len(pairs),
                            max_size=len(pairs)))
    g = build_graph([(f"v{a}", f"v{b}", w / 4.0)
                     for (a, b), w in zip(sorted(pairs), weights)])
    kind = draw(st.sampled_from(["uniform", "inverse_sqrt_weight",
                                 "inverse_weight", "custom"]))
    if kind == "custom":
        eighths = draw(st.lists(st.integers(2, 16), min_size=g.n_edges,
                                max_size=g.n_edges))
        return g, ConstraintSet.custom(g, np.array(eighths) / 8.0)
    return g, ConstraintSet.from_kind(g, kind)


def fields(g, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=g.n_vertices,
                    max_size=g.n_vertices).map(lambda xs: np.array(xs) / 4.0)


def check_call(proj, g, K, z):
    v = proj.project(z, tol=TOL, warm=True)
    assert nu_norm(g, v - project_oracle(g, K, z)) <= AGREE
    assert np.array_equal(proj.abs_gaps, np.abs(edge_gaps(g, v)))
    return v


@PROPERTY
@given(constrained_graphs(), st.data())
def test_warm_chain_matches_oracle_growth(case, data):
    # a source that changes from step to step: piles grow, are dug out and
    # regrow, so edges leave the active list and come back with multipliers
    g, K = case
    h = data.draw(st.sampled_from([0.25, 1.0, 3.0]), label="h")
    proj = DykstraProjector(g, K)
    v = np.zeros(g.n_vertices)
    for step in range(STEPS):
        f = data.draw(fields(g, -8, 8), label=f"f{step}")
        v = check_call(proj, g, K, v + h * f)


@PROPERTY
@given(constrained_graphs(), st.data())
def test_warm_chain_matches_oracle_collapse(case, data):
    g, K = case
    u0 = data.draw(fields(g, -16, 16), label="u0")
    L = max_relative_slope(u0, K)
    assume(L > 1.0)
    t, h = 1.0 / L, (1.0 - 1.0 / L) / STEPS
    proj = DykstraProjector(g, K)
    v = u0 / L
    for _ in range(STEPS):
        v = check_call(proj, g, K, v * (1.0 + h / t))
        t += h


def reference_events(g, K, traj, tol):
    """Events from a fresh |gaps| >= c - band mask of every kept state."""
    threshold = K.bounds - _EVENT_BAND * tol
    masks = [np.abs(edge_gaps(g, u)) >= threshold for u in traj.states]
    events = []
    for t, before, now in zip(traj.times[1:], masks, masks[1:]):
        for e in np.flatnonzero(now != before):
            events.append((float(t), g.edges[e],
                           "activated" if now[e] else "deactivated"))
    return events


@PROPERTY
@given(constrained_graphs(), st.data())
def test_event_masks_match_fresh_gaps(case, data):
    # the solvers derive each step's binding mask from the gaps the
    # projector kept; equal event lists from the same initial mask mean
    # equal masks at every step
    g, K = case
    f = data.draw(fields(g, -4, 8), label="f")
    u0 = data.draw(fields(g, -16, 16), label="u0")
    tol = 1e-10
    growth = solve_growth(g, K, np.zeros(g.n_vertices),
                          SourceSchedule.constant(g, f), 1.0, 0.125, tol=tol)
    assert growth.events == reference_events(g, K, growth, tol)
    _, collapse = solve_collapse(g, K, u0, 0.05, tol=tol)
    assert collapse.events == reference_events(g, K, collapse, tol)
