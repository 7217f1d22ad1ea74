import numpy as np
import pytest
from hypothesis import strategies as st

from graphsand import ConstraintSet, build_graph, build_path, build_star, \
    build_truncated_z
from graphsand.proximal import CONSTRAINT_KINDS


@pytest.fixture
def p4():
    return build_path(4)


@pytest.fixture
def p4_uniform(p4):
    return ConstraintSet.from_kind(p4, "uniform")


@pytest.fixture
def chain_w4():
    """The two-edge chain with w12 = 1, w23 = 4."""
    return build_path(3, weights=[1.0, 4.0])


def constraint_sets(g):
    """Every named constraint set on g plus one custom table of bounds: each
    is a slope polytope with its own p-energy."""
    return [ConstraintSet.from_kind(g, kind) for kind in CONSTRAINT_KINDS] \
        + [ConstraintSet(g, np.linspace(0.5, 1.5, g.n_edges))]


def random_connected_graph(rng, n_max=5, w_lo=0.5, w_hi=2.0):
    """Random connected graph: a spanning tree plus a few extra edges."""
    n = int(rng.integers(2, n_max + 1))
    labels = [f"v{k}" for k in range(n)]
    edges = {}
    order = rng.permutation(n)
    for k in range(1, n):
        a = labels[order[k]]
        b = labels[order[int(rng.integers(0, k))]]
        key = (min(a, b), max(a, b))
        edges[key] = float(rng.uniform(w_lo, w_hi))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        key = (min(labels[a], labels[b]), max(labels[a], labels[b]))
        if key not in edges:
            edges[key] = float(rng.uniform(w_lo, w_hi))
    return build_graph([(a, b, w) for (a, b), w in edges.items()])


@st.composite
def weighted_graphs(draw, max_n=6, max_edges=12, cycles=True):
    """A random connected graph: a random tree plus chords (none when
    cycles is false), at most max_edges edges, weights k/4 for k in 1..16."""
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n if cycles else 0))
    for a, b in chords:
        if a != b and len(pairs) < max_edges:
            pairs.add((min(a, b), max(a, b)))
    weights = draw(st.lists(st.integers(1, 16), min_size=len(pairs),
                            max_size=len(pairs)))
    return build_graph([(f"v{a}", f"v{b}", w / 4.0)
                        for (a, b), w in zip(sorted(pairs), weights)])


def random_field(rng, g, scale=2.0):
    return rng.normal(scale=scale, size=g.n_vertices)


def grid_graph(m, w_lo=1.0, w_hi=1.0, rng=None):
    """m x m grid; unit weights, or uniform in [w_lo, w_hi] drawn from rng."""
    edges = []
    for a in range(m):
        for b in range(m):
            for a2, b2 in ((a + 1, b), (a, b + 1)):
                if a2 < m and b2 < m:
                    w = 1.0 if rng is None else float(rng.uniform(w_lo, w_hi))
                    edges.append((f"g{a}_{b}", f"g{a2}_{b2}", w))
    return build_graph(edges)


@st.composite
def solver_graphs(draw):
    """A graph the solvers' block properties run on: a weighted path or
    star, a Z window with its guard band, or a 2-4 grid (with cycles)."""
    shape = draw(st.sampled_from(["path", "star", "z", "grid"]))
    weight = st.integers(1, 16).map(lambda k: k / 4.0)
    if shape == "path":
        n = draw(st.integers(2, 8))
        return build_path(n, draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    if shape == "star":
        return build_star(draw(st.lists(weight, min_size=2, max_size=6)))
    if shape == "z":
        return build_truncated_z(draw(st.integers(3, 8)))
    seed = draw(st.integers(0, 2 ** 16))
    return grid_graph(draw(st.integers(2, 4)), 0.5, 2.0, np.random.default_rng(seed))
