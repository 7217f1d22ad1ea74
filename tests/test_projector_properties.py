"""Property tests of the warm-started Dykstra projector.

Solvers keep one projector per run and carry its multipliers and its list
of active edges from step to step.  A chain of warm calls on growth-like
inputs (z = v + h f) and collapse-like inputs (z = v (1 + h / t)) must land
on the exact projection at every call, and the gaps the projector keeps for
the event bookkeeping must be those of the state it returned.  On graphs
too large for the oracle, the chain must match a full-scan reference of the
warm step bit for bit.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conftest import grid_graph, weighted_graphs
from graphsand import (ConstraintSet, SourceSchedule, build_star,
                       build_truncated_z, max_relative_slope, nu_norm,
                       solve_collapse, solve_growth)
from graphsand.calculus import edge_gaps
from graphsand.evolution import _EVENT_BAND
from graphsand.proximal import DykstraProjector
from reference import project_oracle

PROPERTY = settings(max_examples=150, deadline=None, database=None)
TOL = 1e-12      # projector tolerance, well below the agreement asked for
AGREE = 1e-9     # weighted-norm distance to the oracle at every call
STEPS = 5


@st.composite
def constrained_graphs(draw, cycles=True):
    """A small weighted graph (at most 12 edges, so the oracle applies) with
    a random constraint set."""
    g = draw(weighted_graphs(cycles=cycles))
    kind = draw(st.sampled_from(["uniform", "inv-sqrt-w", "inv-w", "custom"]))
    if kind == "custom":
        eighths = draw(st.lists(st.integers(2, 16), min_size=g.n_edges,
                                max_size=g.n_edges))
        return g, ConstraintSet(g, np.array(eighths) / 8.0)
    return g, ConstraintSet.from_kind(g, kind)


def fields(g, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=g.n_vertices,
                    max_size=g.n_vertices).map(lambda xs: np.array(xs) / 4.0)


def check_call(proj, g, K, z):
    v = proj.project(z)
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
    proj = DykstraProjector(g, K, TOL)
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
    proj = DykstraProjector(g, K, TOL)
    v = u0 / L
    for _ in range(STEPS):
        v = check_call(proj, g, K, v * (1.0 + h / t))
        t += h


@PROPERTY
@given(constrained_graphs(cycles=False), st.integers(0, 300), st.data())
def test_huge_fields_project_to_their_rounding_floor(case, exponent, data):
    # at magnitude M rounding leaves each gap known to about eps * M, above
    # tol once M passes about 1e5; the projection must still end, conserve
    # mass and be stable up to that rounding.  Trees only: on a cycle the
    # sweep count grows with M whatever the stopping rule (see CHANGES.md)
    g, K = case
    z = data.draw(fields(g, -8, 8), label="z") * 10.0 ** exponent
    v = DykstraProjector(g, K, TOL).project(z)
    eps, M = np.finfo(float).eps, np.max(np.abs(z))
    D = g.degrees
    assert abs(np.dot(D, v - z)) <= 64 * eps * np.dot(D, np.abs(z))
    assert np.all(np.abs(edge_gaps(g, v)) <= K.bounds + TOL + 4096 * eps * M)


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


class FullScanProjector:
    """Reference warm step: the same fold, sweep order and arithmetic as
    DykstraProjector, but the sweep runs on a list of every vertex and each
    round ends with a gap pass over every edge, with no cached plan."""

    def __init__(self, g, K):
        i, j = g.edge_index.T
        deg = g.degrees
        inv_di, inv_dj = 1.0 / deg[i], 1.0 / deg[j]
        invsum = inv_di + inv_dj
        self.g, self.K = g, K
        self.il, self.jl, self.deg = i.tolist(), j.tolist(), deg.tolist()
        self.invdi, self.invdj = inv_di.tolist(), inv_dj.tolist()
        self.invsum, self.coef = invsum.tolist(), (1.0 / invsum).tolist()
        self.c = K.bounds.tolist()
        self.reset()

    def reset(self):
        self.mu = [0.0] * self.g.n_edges
        self.active = []

    def project(self, z, tol):
        v = np.array(z, dtype=float)
        mu, il, jl, deg = self.mu, self.il, self.jl, self.deg
        support = [e for e in self.active if mu[e] != 0.0]
        for e in support:
            v[il[e]] += mu[e] / deg[il[e]]
        for e in support:
            v[jl[e]] += -mu[e] / deg[jl[e]]
        limit = self.K.bounds + tol
        a = np.abs(edge_gaps(self.g, v))
        over = np.flatnonzero(a > limit).tolist()
        active = self.active = sorted(set(support).union(over)) if over else support
        vl = v.tolist()
        while active:
            while True:
                change = 0.0
                for e in active:
                    i, j, m, c = il[e], jl[e], mu[e], self.c[e]
                    gap = vl[j] - vl[i] + m * self.invsum[e]
                    if gap > c:
                        m_new = (gap - c) * self.coef[e]
                    elif gap < -c:
                        m_new = (gap + c) * self.coef[e]
                    else:
                        m_new = 0.0
                    dmu = m_new - m
                    if dmu != 0.0:
                        vl[i] += dmu * self.invdi[e]
                        vl[j] -= dmu * self.invdj[e]
                        change += dmu * dmu * self.invsum[e]
                        mu[e] = m_new
                if change <= tol * tol:
                    break
            v = np.array(vl)
            a = np.abs(edge_gaps(self.g, v))
            over = np.flatnonzero(a > limit).tolist()
            grown = sorted(set(active).union(over))
            if not over or len(grown) == len(active):
                break
            active = self.active = grown
        self.abs_gaps = a
        return v


@st.composite
def large_graphs(draw):
    """A 6x6 grid, a Z window with R = 30 or a star of 13-20 leaves, all
    beyond the oracle's 12 edges, with a random constraint set."""
    shape = draw(st.sampled_from(["grid", "z", "star"]))
    if shape == "grid":
        g = grid_graph(6, 0.5, 2.0, np.random.default_rng(draw(st.integers(0, 99))))
    elif shape == "z":
        g = build_truncated_z(30)
    else:
        g = build_star(draw(st.lists(st.integers(1, 16).map(lambda w: w / 4.0),
                                     min_size=14, max_size=21)))
    kind = draw(st.sampled_from(["uniform", "inv-sqrt-w", "inv-w", "custom"]))
    if kind == "custom":
        eighths = draw(st.lists(st.integers(2, 16), min_size=g.n_edges,
                                max_size=g.n_edges))
        return g, ConstraintSet(g, np.array(eighths) / 8.0)
    return g, ConstraintSet.from_kind(g, kind)


def sparse_fields(g, lo, hi):
    """Point data on up to four vertices, as the shipped scenarios have."""
    return st.dictionaries(st.integers(0, g.n_vertices - 1), st.integers(lo, hi),
                           max_size=4).map(
        lambda d: np.bincount(list(d), list(d.values()), g.n_vertices) / 4.0)


CHAIN = 8


@settings(max_examples=60, deadline=None, database=None)
@given(large_graphs(), st.sampled_from(["growth", "collapse"]), st.data())
def test_warm_chain_matches_full_scan_bit_for_bit(case, drive, data):
    # drives that grow and shrink the active set; one reset() part of the
    # way along the chain
    g, K = case
    reset_at = data.draw(st.integers(1, CHAIN - 1), label="reset_at")
    tol = data.draw(st.sampled_from([1e-3, 1e-6, 1e-10, 1e-12]), label="tol")
    if drive == "growth":
        h = data.draw(st.sampled_from([0.25, 1.0, 3.0]), label="h")
        v = np.zeros(g.n_vertices)
    else:
        u0 = data.draw(sparse_fields(g, -24, 24), label="u0")
        L = max_relative_slope(u0, K)
        assume(L > 1.0)
        v, t, h = u0 / L, 1.0 / L, (1.0 - 1.0 / L) / CHAIN
    proj, ref = DykstraProjector(g, K, tol), FullScanProjector(g, K)
    for step in range(CHAIN):
        if step == reset_at:
            proj.reset()
            ref.reset()
        if drive == "growth":
            z = v + h * data.draw(sparse_fields(g, -8, 8), label=f"f{step}")
        else:
            z = v * (1.0 + h / t)
            t += h
        v = proj.project(z)
        expected = ref.project(z, tol)
        assert v.tobytes() == expected.tobytes()
        assert np.array(proj.mu).tobytes() == np.array(ref.mu).tobytes()
        assert proj.abs_gaps.tobytes() == ref.abs_gaps.tobytes()
