from fractions import Fraction

import numpy as np
import pytest

from graphsand import build_graph, p_laplacian
from graphsand.calculus import (edge_gaps, model_weight_factor, p_energy,
                                p_flux, scatter)
from conftest import random_connected_graph, random_field


@pytest.fixture
def edge():
    return build_graph([("a", "b", 1.0)])


def energy(g, u, p, model):
    """The p-energy: sum over canonical edges of wf |u(y) - u(x)|^p / p."""
    return p_energy(edge_gaps(g, u), p, model_weight_factor(g, p, model))


def ibp_residual(g, u, v, p, model):
    """|<Delta_p u, v>_nu + sum over edges of the flux of u times the gap of
    v|: zero in exact arithmetic (summation by parts)."""
    lhs = float(np.dot(p_laplacian(g, u, p, model) * g.degrees, v))
    flux = p_flux(edge_gaps(g, u), p, model_weight_factor(g, p, model))
    return abs(lhs + float(np.sum(flux * edge_gaps(g, v))))


def test_gradient_constant(p4):
    assert np.all(edge_gaps(p4, np.full(4, 3.7)) == 0)


def test_gradient_values(p4):
    gaps = edge_gaps(p4, np.array([0.0, 1.0, 3.0, 3.0]))
    assert p4.edges[1] == ("x2", "x3")
    assert gaps[1] == 2.0


def test_divergence_zero(p4):
    assert np.all(scatter(p4, np.zeros(p4.n_edges)) == 0)


def test_edge_kernel_matches_loop_reference():
    # scatter sums the two ends separately, so the order of additions
    # differs from a per-edge loop; allow a few ulps of the summed magnitude
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=8)
        u = random_field(rng, g)
        flux = rng.normal(scale=3.0, size=g.n_edges)
        gaps = np.array([u[j] - u[i] for i, j in g.edge_index])
        ref = np.zeros(g.n_vertices)
        mag = np.zeros(g.n_vertices)
        for (i, j), q in zip(g.edge_index, flux):
            ref[i] += q
            ref[j] -= q
            mag[i] += abs(q)
            mag[j] += abs(q)
        assert np.array_equal(edge_gaps(g, u), gaps)
        assert np.all(np.abs(scatter(g, flux) - ref) <= 8 * np.finfo(float).eps * mag)


def test_div_grad_is_laplacian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_connected_graph(rng)
        u = random_field(rng, g)
        lhs = scatter(g, g.weights * edge_gaps(g, u)) / g.degrees
        rhs = p_laplacian(g, u, 2.0)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_laplacian_indicator(p4):
    lap = p_laplacian(p4, {"x2": 1.0}, 2.0)
    assert np.allclose(lap, [1.0, -1.0, 0.5, 0.0])


def test_laplacian_constant(p4):
    assert np.allclose(p_laplacian(p4, np.ones(4), 2.0), 0.0)


def test_p_laplacian_matches_laplacian_at_p2():
    # the normalized Laplacian (1/d_x) sum_y w_xy (u(y) - u(x)) from the
    # dense weight matrix
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_connected_graph(rng)
        u = random_field(rng, g)
        W = np.zeros((g.n_vertices, g.n_vertices))
        W[g.edge_index[:, 0], g.edge_index[:, 1]] = g.weights
        W += W.T
        assert np.allclose(p_laplacian(g, u, 2.0, "G"), W @ u / g.degrees - u)


def test_p_laplacian_single_edge(edge):
    out = p_laplacian(edge, np.array([0.0, 1.0]), 3.0, "G")
    assert np.allclose(out, [1.0, -1.0])


def test_p_laplacian_w_single_edge():
    g = build_graph([("a", "b", 4.0)])
    out = p_laplacian(g, np.array([0.0, 1.0]), 3.0, "w")
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(-2.0)


def test_p_laplacian_w_reduces_to_G_for_unit_weights(p4):
    rng = np.random.default_rng(13)
    for p in (2.0, 3.0, 4.5, 8.0):
        u = random_field(rng, p4)
        assert np.allclose(p_laplacian(p4, u, p, "w"), p_laplacian(p4, u, p, "G"))


def test_p_laplacian_constant_and_validation(p4):
    for model in ("G", "w"):
        assert np.allclose(p_laplacian(p4, np.ones(4), 7.0, model), 0.0)
    with pytest.raises(ValueError):
        p_laplacian(p4, np.zeros(4), 1.5)
    with pytest.raises(FloatingPointError):
        p_laplacian(p4, np.array([0.0, 1e20, 0.0, 0.0]), 128.0)


def test_mass_identity():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_connected_graph(rng)
        u = random_field(rng, g)
        for p in (2.0, 3.0, 7.0, 16.0):
            for model in ("G", "w"):
                total = float(np.dot(g.degrees, p_laplacian(g, u, p, model)))
                scale = float(np.dot(g.degrees, np.abs(p_laplacian(g, u, p, model)))) + 1.0
                assert abs(total) <= 1e-10 * scale


def test_energy_values(edge):
    assert energy(edge, np.array([0.0, 1.0]), 4.0, "G") == pytest.approx(0.25)
    assert energy(edge, np.full(2, 5.0), 4.0, "G") == 0.0
    assert energy(edge, np.full(2, 5.0), 4.0, "w") == 0.0


def test_energy_homogeneity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = random_connected_graph(rng)
        u = random_field(rng, g)
        lam = float(rng.uniform(0.5, 2.0))
        for p in (2.0, 3.0, 6.0):
            for model in ("G", "w"):
                assert energy(g, lam * u, p, model) == \
                    pytest.approx(lam ** p * energy(g, u, p, model), rel=1e-10)


def test_integration_by_parts():
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=10)
        u = random_field(rng, g)
        v = random_field(rng, g)
        for p in (2.0, 3.0, 5.5, 9.0):
            for model in ("G", "w"):
                res = ibp_residual(g, u, v, p, model)
                scale = 1.0 + abs(np.dot(g.degrees * p_laplacian(g, u, p, model), v))
                assert res <= 1e-10 * scale


def test_integration_by_parts_constant_cases(p4):
    rng = np.random.default_rng(17)
    u = random_field(rng, p4)
    assert ibp_residual(p4, np.ones(4), u, 3.0, "G") == \
        pytest.approx(0.0, abs=1e-12)
    # constant v reduces the left side to the mass identity
    assert ibp_residual(p4, u, np.ones(4), 3.0, "G") <= 1e-10


def test_p_laplacian_pairing_monotone():
    rng = np.random.default_rng(18)
    for _ in range(20):
        g = random_connected_graph(rng)
        u, v = random_field(rng, g), random_field(rng, g)
        for p in (2.0, 4.0, 9.0):
            for model in ("G", "w"):
                pairing = np.dot(
                    g.degrees
                    * (-p_laplacian(g, u, p, model) + p_laplacian(g, v, p, model)),
                    u - v)
                assert pairing >= -1e-10


def ulps(got, exact):
    """Relative error of a float against an exact Fraction, in units of eps;
    None when exact lies below the normal range, where results underflow
    to 0 or to subnormals and carry no relative precision."""
    if abs(exact) < np.finfo(float).tiny:
        return None
    return float(abs((Fraction(got) - exact) / exact)) / np.finfo(float).eps


@pytest.mark.parametrize("p", [16, 64, 128])
def test_power_kernel_accuracy(p):
    rng = np.random.default_rng(p)
    gaps = rng.uniform(-3.0, 3.0, size=400)
    wf = rng.uniform(0.5, 2.0, size=400)
    flux = p_flux(gaps, float(p), wf)
    flux_err, energy_err = [], []
    for k, (g, w) in enumerate(zip(map(Fraction, gaps), map(Fraction, wf))):
        flux_err.append(ulps(flux[k], w * g ** (p - 1)))
        energy = p_energy(gaps[k:k + 1], float(p), wf[k:k + 1])
        energy_err.append(ulps(energy, w * g ** p / p))
    assert max(e for e in flux_err if e is not None) <= 8
    assert max(e for e in energy_err if e is not None) <= 8
