import itertools

import numpy as np
import pytest

from graphsand import (build_graph, build_path, build_star, build_truncated_z,
                       distance_rows, field_values, kantorovich_pairing,
                       nu_norm, parse_edge_lines)
from conftest import random_connected_graph


def degree(g, v):
    return g.degrees[g.vertex_id(v)]


def distance(g, lengths, x, y):
    """Shortest-path distance from x to y: hops when lengths is None."""
    (_, row), = distance_rows(g, lengths, [g.vertex_id(x)])
    return row[g.vertex_id(y)]


def test_p4_degrees(p4):
    assert p4.vertices == ("x1", "x2", "x3", "x4")
    assert np.allclose(p4.degrees, [1, 2, 2, 1])


def test_star_hub_degree():
    g = build_star([0.5, 2.0, 3.0])
    assert degree(g, "x1") == pytest.approx(5.5)
    assert degree(g, "x0") == pytest.approx(0.5)


def test_build_star_unit_degrees():
    g = build_star([1.0, 1.0, 1.0])
    assert [degree(g, v) for v in ("x0", "x1", "x2", "x3")] == [1, 3, 1, 1]


def test_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([("a", "a", 1.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        build_graph([("a", "b", 0.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph([("a", "b", 1.0), ("b", "a", 2.0)])


@pytest.mark.parametrize("label", ["a,b", "b\n", "c\r", "\r\n"])
def test_label_that_breaks_csv_rows_rejected(label):
    # labels are written unquoted into `t,vertex,u` rows
    with pytest.raises(ValueError, match="contains ',' or a line break"):
        build_graph([("z", label, 1.0)])


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        build_graph([("a", "b", 1.0), ("c", "d", 1.0)])


def test_weight_symmetry():
    # w_xy = w_yx: the graph does not depend on how each pair is oriented
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_connected_graph(rng)
        flipped = build_graph([(b, a, w) for (a, b), w in zip(g.edges, g.weights)])
        assert flipped.edges == g.edges
        assert np.array_equal(flipped.weights, g.weights) and np.all(g.weights > 0)


def test_degrees_and_neighbors_match_edge_loop():
    # the degrees add the weights in edge order, so a per-edge loop gives
    # the same bits; neighbors hold vertex ids, ascending
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=8)
        degrees = np.zeros(g.n_vertices)
        nbrs = [[] for _ in g.vertices]
        for (i, j), w in zip(g.edge_index.tolist(), g.weights):
            degrees[i] += w
            degrees[j] += w
            nbrs[i].append(j)
            nbrs[j].append(i)
        assert np.array_equal(g.degrees, degrees)
        assert g.neighbors == tuple(tuple(sorted(n)) for n in nbrs)


def test_nu_mass(p4):
    # nu(A) = sum of weighted degrees over A: the nu-norm of its indicator
    def nu_mass(A):
        return nu_norm(p4, {v: 1.0 for v in A}, 1)
    assert nu_mass([]) == 0.0
    assert nu_mass(p4.vertices) == pytest.approx(6.0)
    assert nu_mass(["x2"]) == pytest.approx(2.0)
    with pytest.raises(KeyError):
        nu_mass(["nope"])


def test_inner_product_nu(p4):
    # the nu-pairing sum_x u(x) v(x) d_x, read through the dual objective
    def pair(u, v):
        return kantorovich_pairing(p4, u, np.zeros(4), v)
    zero = np.zeros(4)
    assert pair(zero, zero) == 0.0
    ind = {"x2": 1.0}
    assert pair(ind, ind) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert pair(u, v) == pytest.approx(pair(v, u))


def test_graph_distance(p4):
    assert distance(p4, None, "x2", "x2") == 0
    assert distance(p4, None, "x1", "x4") == 3
    # the hop metric ignores the weights
    g = build_path(4, weights=[10.0, 0.1, 5.0])
    assert all(distance(g, None, a, b) == distance(p4, None, a, b)
               for a in p4.vertices for b in p4.vertices)


def test_graph_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=8)
        for a, b, c in itertools.product(g.vertices, repeat=3):
            assert distance(g, None, a, c) <= \
                distance(g, None, a, b) + distance(g, None, b, c)


def test_constraint_distance_chain(chain_w4):
    c = 1.0 / np.sqrt(chain_w4.weights)
    assert distance(chain_w4, c, "x1", "x3") == pytest.approx(1.5)
    assert distance(chain_w4, c, "x1", "x1") == 0.0


def test_constraint_distance_unit_equals_hops():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=6)
        ones = np.ones(g.n_edges)
        for a in g.vertices:
            for b in g.vertices:
                assert distance(g, ones, a, b) == \
                    pytest.approx(distance(g, None, a, b))


def test_constraint_distance_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_connected_graph(rng)
        c = rng.uniform(0.2, 3.0, size=g.n_edges)
        for a in g.vertices:
            for b in g.vertices:
                assert distance(g, c, a, b) == \
                    pytest.approx(distance(g, c, b, a))


def test_truncated_z():
    g = build_truncated_z(3)
    assert set(g.vertices) == {str(k) for k in range(-3, 4)}
    assert degree(g, "0") == 2.0
    assert degree(g, "3") == 1.0
    assert g.guard_vertices == {"-3", "-2", "2", "3"}


def test_build_path_validation():
    with pytest.raises(ValueError):
        build_path(1)
    with pytest.raises(ValueError):
        build_path(4, weights=[1.0])
    with pytest.raises(ValueError):
        build_truncated_z(0)


def test_edge_list_roundtrip(p4):
    text = "# comment\nx1 x2 1.0\nx2 x3 1.0\n\nx3 x4 1.0\n"
    g = parse_edge_lines(text)
    assert g.edges == p4.edges
    assert np.allclose(g.weights, p4.weights)
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_lines("x1 x2\n")


def test_vertex_field():
    g = build_path(3)
    f = field_values(g, {"x2": 2.5})
    assert f.tolist() == [0.0, 2.5, 0.0]
    assert np.array_equal(field_values(g, [1.0, 2.5, 1.0]), [1.0, 2.5, 1.0])
    with pytest.raises(KeyError):
        field_values(g, {"zzz": 1.0})
    with pytest.raises(ValueError, match="finite"):
        field_values(g, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        field_values(g, {"x1": np.nan})
    with pytest.raises(ValueError, match="shape"):
        field_values(g, np.zeros(4))
    # float64 arrays take a shortcut past the coercion, not past the checks
    for bad in (-np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            field_values(g, np.array([0.0, 1.0, bad]))
    ints = field_values(g, np.array([1, 2, 3]))
    assert ints.dtype == float and ints.tolist() == [1.0, 2.0, 3.0]
    assert field_values(g, np.array([1, 2, 3], dtype=np.uint8)).tolist() == [1.0, 2.0, 3.0]
    # no silent misreads: complex, boolean and text arrays are refused
    for bad, dtype in ((np.array([1 + 2j, 0, 0]), "complex128"),
                       (np.array([True, False, True]), "bool"),
                       (["1", "2", "3"], "<U1")):
        with pytest.raises(ValueError, match=f"got dtype {dtype}"):
            field_values(g, bad)
    with pytest.raises(ValueError, match="shape"):
        field_values(g, np.zeros((3, 1)))
