"""Property tests of the single-source distance kernel and the Lipschitz check.

Edge lengths are multiples of 1/8 and the tolerance a power of two, so every
path sum and every `d + tol` is exact; the kernel must then agree with a
Floyd-Warshall table, and `is_lipschitz_wrt` with the pairwise definition,
to the last bit.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from graphsand import build_graph, build_path, distance_rows, is_lipschitz_wrt
from graphsand.graph import distance_balls

TOL = 2.0 ** -6
PROPERTY = settings(max_examples=150, deadline=None, database=None)


@st.composite
def graphs_with_lengths(draw, max_n=9):
    """A random connected graph (random tree plus chords), the metric to use
    ("graph" or an array of k/8 edge lengths) and its per-edge lengths."""
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n))
    pairs |= {(min(a, b), max(a, b)) for a, b in chords if a != b}
    weights = draw(st.lists(st.integers(1, 16), min_size=len(pairs),
                            max_size=len(pairs)))
    g = build_graph([(f"v{a}", f"v{b}", w / 4.0)
                     for (a, b), w in zip(sorted(pairs), weights)])
    if draw(st.booleans()):
        return g, "graph", np.ones(g.n_edges)
    eighths = draw(st.lists(st.integers(1, 24), min_size=g.n_edges,
                            max_size=g.n_edges))
    lengths = np.array(eighths) / 8.0
    return g, lengths, lengths


def floyd_warshall(g, lengths):
    n = g.n_vertices
    D = [[0.0 if a == b else math.inf for b in range(n)] for a in range(n)]
    for (i, j), c in zip(g.edge_index.tolist(), lengths.tolist()):
        D[i][j] = D[j][i] = c
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if D[i][k] + D[k][j] < D[i][j]:
                    D[i][j] = D[i][k] + D[k][j]
    return np.array(D)


def pairwise_lipschitz(D, u, tol):
    n = len(u)
    return all(abs(u[a] - u[b]) <= D[a][b] + tol
               for a in range(n) for b in range(n))


def edgewise_lipschitz(g, lengths, u, tol):
    return all(abs(u[i] - u[j]) <= c + tol
               for (i, j), c in zip(g.edge_index.tolist(), lengths.tolist()))


@PROPERTY
@given(graphs_with_lengths(), st.data())
def test_distance_kernel_matches_floyd_warshall(case, data):
    g, metric, lengths = case
    D = floyd_warshall(g, lengths)
    rows = list(distance_rows(g, metric))
    assert [s for s, _ in rows] == list(range(g.n_vertices))
    assert all(np.array_equal(row, D[s]) for s, row in rows)
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), max_size=4))
    picked = list(distance_rows(g, metric, sources))
    assert [s for s, _ in picked] == sources
    assert all(np.array_equal(row, D[s]) for s, row in picked)

    # unit lengths give the hop metric, row by row and bit for bit
    if isinstance(metric, str):
        assert all(np.array_equal(row, D[s])
                   for s, row in distance_rows(g, lengths))


@PROPERTY
@given(graphs_with_lengths(), st.data())
def test_bounded_search_is_the_full_row_cut_at_its_reach(case, data):
    g, metric, lengths = case
    rows = dict(distance_rows(g, metric))
    n = g.n_vertices
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    reaches = data.draw(st.lists(st.integers(0, 24).map(lambda k: k / 8.0),
                                 min_size=len(sources), max_size=len(sources)))
    searches = distance_balls(g, metric, sources, reaches)
    for (src, ball, dist), want, reach in zip(searches, sources, reaches):
        row = rows[src]
        assert src == want and len(set(ball)) == len(ball)
        # every vertex within reach, each at its full-row distance; one
        # buffer serves every search, so a stale entry would show here
        assert set(np.flatnonzero(row <= reach)) <= set(ball)
        assert all(dist[k] == row[k] for k in ball)


@PROPERTY
@given(graphs_with_lengths(), st.data())
def test_lipschitz_check_is_the_pairwise_definition(case, data):
    g, metric, lengths = case
    D = floyd_warshall(g, lengths)
    n = g.n_vertices
    s = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 1).filter(lambda k: k != s))
    kind = data.draw(st.sampled_from(["random", "at_bound", "past_bound",
                                      "edge_slack", "scaled"]))
    expected = None
    if kind == "random":
        u = np.array(data.draw(st.lists(st.integers(-24, 24), min_size=n,
                                        max_size=n))) / 8.0
    elif kind in ("at_bound", "past_bound"):
        # the pair (s, t) sits exactly at d + tol, or 2^-10 past it
        u = D[s].copy()
        u[t] += TOL if kind == "at_bound" else TOL + 2.0 ** -10
        expected = kind == "at_bound"
    elif kind == "edge_slack":
        # every edge within its bound + 0.9 tol, so an edgewise check
        # accepts; along a path of two or more hops the slack adds up
        hops = floyd_warshall(g, np.ones(g.n_edges))[s]
        u = D[s] + 0.9 * TOL * hops
        assert edgewise_lipschitz(g, lengths, u, TOL)
        expected = hops.max() < 2
    else:
        u = D[s] * (data.draw(st.integers(0, 12)) / 8.0)
    reference = pairwise_lipschitz(D, u, TOL)
    if expected is not None:
        assert reference == expected
    assert is_lipschitz_wrt(g, metric, u, tol=TOL) == reference


def test_lipschitz_rejects_slack_accumulated_along_a_path():
    lengths = np.array([1, 3, 2, 5, 1, 4, 2, 3, 1, 2, 6]) / 8.0
    g = build_path(12)
    D = floyd_warshall(g, lengths)
    first = g.vertex_id("x1")
    (_, hops), = distance_rows(g, "graph", [first])
    u = D[first] + 0.9 * TOL * hops
    # each edge exceeds its length by 0.9 tol: fine edge by edge, but the
    # end-to-end pair exceeds its distance by 9.9 tol
    assert edgewise_lipschitz(g, lengths, u, TOL)
    assert not is_lipschitz_wrt(g, lengths, u, tol=TOL)
    assert is_lipschitz_wrt(g, lengths, D[first], tol=TOL)


def test_lipschitz_check_holds_no_square_table():
    """A full scan keeps O(n + E) memory: far below one n x n float table."""
    n = 300
    g = build_path(n)
    u = 0.5 * np.array([int(v[1:]) for v in g.vertices])
    for metric in ("graph", np.full(g.n_edges, 0.75)):
        tracemalloc.start()
        try:
            assert is_lipschitz_wrt(g, metric, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
