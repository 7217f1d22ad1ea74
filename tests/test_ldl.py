import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphsand
from graphsand import build_graph, build_path, build_star, build_truncated_z
from graphsand.ldl import elimination_plan
from conftest import grid_graph


def cyclic_graph(rng, n=40, extra=40):
    """Random spanning tree plus `extra` chords, so the graph has cycles."""
    edges = {}
    for k in range(1, n):
        a, b = k, int(rng.integers(0, k))
        edges[(min(a, b), max(a, b))] = float(rng.uniform(0.5, 2.0))
    while len(edges) < n - 1 + extra:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.setdefault((a, b), float(rng.uniform(0.5, 2.0)))
    return build_graph([(f"v{a}", f"v{b}", w) for (a, b), w in edges.items()])


def dense_reference(g, diag, off, rhs):
    """The dense matrix H and np.linalg.solve(H, rhs): the reference solve."""
    H = np.diag(np.asarray(diag, dtype=float))
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    H[i, j] += off
    H[j, i] += off
    return H, np.linalg.solve(H, rhs)


def newton_system(g, coeff, rng):
    """H = diag(D) + B' diag(coeff) B as (diag, off) and a random rhs."""
    n = g.n_vertices
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    diag = g.degrees + np.bincount(i, weights=coeff, minlength=n) \
        + np.bincount(j, weights=coeff, minlength=n)
    return diag, -coeff, rng.normal(size=n)


GRAPHS = {
    "path": lambda rng: build_path(60, list(rng.uniform(0.5, 2.0, 59))),
    "star": lambda rng: build_star(list(rng.uniform(0.5, 2.0, 25))),
    "truncated_z": lambda rng: build_truncated_z(20),
    "grid": lambda rng: grid_graph(12, 0.5, 2.0, rng),
    "cyclic": lambda rng: cyclic_graph(rng),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_ldl_backward_error_p64_range(name):
    # edge coefficients spanning e^-30..e^30, as |Bu|^(p-2) does near p = 64
    rng = np.random.default_rng(71)
    g = GRAPHS[name](rng)
    plan = elimination_plan(g)
    for _ in range(5):
        coeff = np.exp(rng.uniform(-30.0, 30.0, g.n_edges))
        diag, off, rhs = newton_system(g, coeff, rng)
        x = plan.solve(diag, off, rhs)
        H, ref = dense_reference(g, diag, off, rhs)
        norm_h = np.max(np.sum(np.abs(H), axis=1))
        for sol in (x, ref):
            resid = np.abs(H @ sol - rhs)
            # normwise, and componentwise: with e^30 entries in H the
            # normwise bound alone cannot see errors in the small rows
            assert np.max(resid) <= 1e-12 * (norm_h * np.max(np.abs(sol))
                                             + np.max(np.abs(rhs)))
            assert np.all(resid <= 1e-12 * (np.abs(H) @ np.abs(sol) + np.abs(rhs)))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_ldl_matches_dense_solve_when_well_conditioned(name):
    rng = np.random.default_rng(72)
    g = GRAPHS[name](rng)
    coeff = np.exp(rng.uniform(-1.0, 1.0, g.n_edges))
    diag, off, rhs = newton_system(g, coeff, rng)
    _, ref = dense_reference(g, diag, off, rhs)
    x = elimination_plan(g).solve(diag, off, rhs)
    assert np.allclose(x, ref, rtol=1e-10, atol=1e-12 * np.max(np.abs(ref)))


def test_elimination_plan_is_cached_per_graph():
    g = build_path(5)
    plan = elimination_plan(g)
    assert elimination_plan(g) is plan
    assert elimination_plan(build_path(5)) is not plan


def test_path_ordering_is_cyclic_reduction():
    # a logarithmic number of rounds, not one round per vertex
    plan = elimination_plan(build_path(401))
    assert len(plan.rounds) <= 10
    # eliminating a path's inner vertex fills one slot between its neighbours
    assert plan.n_slots < 2 * 401


def test_graphsand_never_imports_scipy():
    src = str(Path(graphsand.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, numpy as np, graphsand\n"
            "g = graphsand.build_path(8)\n"
            "K = graphsand.ConstraintSet.from_kind(g, 'uniform')\n"
            "graphsand.resolvent_p(g, 16.0, K, 0.1, np.arange(8.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
