import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsand import (ConstraintSet, SourceSchedule, build_graph, build_path,
                       collapse_via_p_experiment, converge_p_experiment,
                       is_stable, max_relative_slope, nu_norm, p_laplacian,
                       project, resolvent_p, solve_collapse, solve_growth,
                       solve_p_flow)
from graphsand import calculus, proximal
from graphsand.calculus import edge_gaps, p_energy, p_flux, scatter
from graphsand.proximal import DykstraProjector, ProjectionError, ResolventError
from conftest import constraint_sets, grid_graph, random_connected_graph, \
    random_field, weighted_graphs
from reference import project_oracle


@pytest.fixture
def edge():
    return build_graph([("a", "b", 1.0)])


def random_constraint(rng, g):
    kind = rng.choice(["uniform", "inv-sqrt-w", "inv-w", "custom"])
    if kind == "custom":
        return ConstraintSet(g, rng.uniform(0.3, 2.0, size=g.n_edges))
    return ConstraintSet.from_kind(g, kind)


def test_constraint_kinds(chain_w4):
    uni = ConstraintSet.from_kind(chain_w4, "uniform")
    assert np.allclose(uni.bounds, 1.0)
    isw = ConstraintSet.from_kind(chain_w4, "inv-sqrt-w")
    assert np.allclose(isw.bounds, [1.0, 0.5])
    iw = ConstraintSet.from_kind(chain_w4, "inv-w")
    assert np.allclose(iw.bounds, [1.0, 0.25])
    with pytest.raises(ValueError):
        ConstraintSet(chain_w4, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match=r"expected 2 bounds, got \(3,\)"):
        ConstraintSet(chain_w4, np.ones(3))
    with pytest.raises(ValueError):
        ConstraintSet.from_kind(chain_w4, "bogus")


def test_constraint_kinds_are_named_by_token(chain_w4):
    # one spelling per stable set: the token of scenario files and the CLI
    assert tuple(proximal.CONSTRAINT_KINDS) == ("uniform", "inv-sqrt-w", "inv-w")
    for name in ("uniform", "inverse_sqrt_weight", "inverse_weight", "custom"):
        assert not hasattr(ConstraintSet, name)
    for name in ("inverse_sqrt_weight", "inverse_weight", ["uniform"], None):
        message = re.escape(f"unknown constraint kind {name!r}")
        with pytest.raises(ValueError, match=message):
            ConstraintSet.from_kind(chain_w4, name)


def test_is_stable(p4, p4_uniform):
    assert is_stable(np.full(4, 2.0), p4_uniform)
    assert is_stable(np.array([0.0, 1.0, 2.0, 1.0]), p4_uniform)
    assert not is_stable(np.array([0.0, 3.0, 0.0, 0.0]), p4_uniform)


def test_is_stable_chain_model2(chain_w4):
    K = ConstraintSet.from_kind(chain_w4, "inv-sqrt-w")
    assert is_stable(np.array([0.0, 1.0, 1.4]), K)
    assert not is_stable(np.array([0.0, 1.0, 1.6]), K)


def test_max_relative_slope(p4, p4_uniform):
    for b in (0.0, 1.0, 1.8):
        u0 = {"x2": 3.0, "x4": b}
        assert max_relative_slope(u0, p4_uniform) == pytest.approx(3.0)
    assert max_relative_slope(np.full(4, 1.3), p4_uniform) == 0.0


def test_max_relative_slope_chain(chain_w4):
    K = ConstraintSet.from_kind(chain_w4, "inv-sqrt-w")
    assert max_relative_slope(np.array([0.0, 0.0, 1.0]), K) == pytest.approx(2.0)


def test_project_identity_inside(p4, p4_uniform):
    z = np.array([0.0, 1.0, 0.5, 1.0])
    assert np.array_equal(project(p4, p4_uniform, z), z)
    # exactly binding constraints are tolerance-inclusive
    z_bind = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(project(p4, p4_uniform, z_bind), z_bind)


def test_project_single_edge(edge):
    K = ConstraintSet.from_kind(edge, "uniform")
    u = project(edge, K, np.array([0.0, 3.0]))
    assert np.allclose(u, [1.0, 2.0], atol=1e-10)


def test_project_p4_matches_oracle(p4, p4_uniform):
    z = np.array([0.0, 3.0, 0.0, 0.0])
    u = project(p4, p4_uniform, z)
    uo = project_oracle(p4, p4_uniform, z)
    assert nu_norm(p4, u - uo) <= 1e-8


def test_project_oracle_identity(p4, p4_uniform):
    z = np.array([0.0, 0.5, 0.2, 0.9])
    assert np.array_equal(project_oracle(p4, p4_uniform, z), z)


def test_project_oracle_rejects_large_graphs():
    rng = np.random.default_rng(0)
    g = build_path(15)
    with pytest.raises(ValueError, match="12 edges"):
        project_oracle(g, ConstraintSet.from_kind(g, "uniform"), random_field(rng, g))


def test_project_matches_oracle_randomized():
    rng = np.random.default_rng(20)
    for _ in range(200):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        z = random_field(rng, g, scale=2.0)
        u = project(g, K, z)
        uo = project_oracle(g, K, z)
        assert nu_norm(g, u - uo) <= 1e-8
        assert is_stable(u, K, 1e-9)


def test_project_idempotent():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        u = project(g, K, random_field(rng, g))
        again = project(g, K, u)
        assert nu_norm(g, u - again) <= 1e-9


def test_project_nonexpansive():
    rng = np.random.default_rng(22)
    for _ in range(50):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        z1, z2 = random_field(rng, g), random_field(rng, g)
        u1, u2 = project(g, K, z1), project(g, K, z2)
        assert nu_norm(g, u1 - u2) <= nu_norm(g, z1 - z2) + 1e-8


def test_project_order_preserving():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        z1 = random_field(rng, g)
        z2 = z1 + np.abs(random_field(rng, g, scale=0.7))
        u1, u2 = project(g, K, z1), project(g, K, z2)
        assert np.all(u1 <= u2 + 1e-8)


def test_project_contraction_extra_norms():
    rng = np.random.default_rng(24)
    for _ in range(40):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        z1, z2 = random_field(rng, g), random_field(rng, g)
        u1, u2 = project(g, K, z1), project(g, K, z2)
        for q in (1, 2, np.inf):
            assert nu_norm(g, u1 - u2, q) <= nu_norm(g, z1 - z2, q) + 1e-8


def test_project_conserves_mass():
    rng = np.random.default_rng(25)
    for _ in range(40):
        g = random_connected_graph(rng)
        K = random_constraint(rng, g)
        z = random_field(rng, g)
        u = project(g, K, z)
        assert abs(np.dot(g.degrees, u - z)) <= 1e-10 * (1 + nu_norm(g, z, 1))


def test_project_max_iter(edge, monkeypatch):
    monkeypatch.setattr(proximal, "MAX_SWEEPS", 0)
    K = ConstraintSet.from_kind(edge, "uniform")
    with pytest.raises(ProjectionError):
        DykstraProjector(edge, K).project(np.array([0.0, 5.0]))


def test_warm_start_matches_cold(p4, p4_uniform):
    rng = np.random.default_rng(26)
    proj = DykstraProjector(p4, p4_uniform)
    u = np.zeros(4)
    for _ in range(30):
        z = u + rng.uniform(0.0, 0.2, size=4)
        warm = proj.project(z)
        cold = project(p4, p4_uniform, z)
        assert nu_norm(p4, warm - cold) <= 1e-9
        u = warm


def test_warm_start_matches_cold_on_cyclic_graphs():
    # cycles make the constraint gradients dependent: the dual is not unique,
    # so carried-over multipliers must still land on the primal projection
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=5)
        K = random_constraint(rng, g)
        proj = DykstraProjector(g, K)
        u = np.zeros(g.n_vertices)
        for _ in range(15):
            z = u + rng.normal(scale=0.5, size=g.n_vertices)
            warm = proj.project(z)
            oracle = project_oracle(g, K, z)
            assert nu_norm(g, warm - oracle) <= 1e-8
            u = warm


# -- resolvent -----------------------------------------------------------


def test_resolvent_lambda_zero(p4, p4_uniform):
    rng = np.random.default_rng(27)
    z = random_field(rng, p4)
    out = resolvent_p(p4, 3.0, p4_uniform, 0.0, z)
    assert np.array_equal(out, z)
    assert out is not z


def test_resolvent_constant_fixed(p4, p4_uniform):
    z = np.full(4, 2.3)
    for p in (2.0, 5.0, 17.0):
        for lam in (0.1, 1.0, 10.0):
            assert np.allclose(resolvent_p(p4, p, p4_uniform, lam, z), z, atol=1e-9)


def test_resolvent_single_edge_vs_bisection():
    g = build_graph([("a", "b", 1.0)])
    p, lam = 3.0, 1.0
    v = resolvent_p(g, p, ConstraintSet.from_kind(g, "uniform"), lam, np.array([0.0, 2.0]))
    # scalar golden: s + 2*lam*s^(p-1) = 2 with s >= 0, solved by bisection
    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + 2 * lam * mid ** (p - 1) < 2.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    assert v[1] - v[0] == pytest.approx(s, abs=1e-10)
    assert v[0] + v[1] == pytest.approx(2.0, abs=1e-10)


def test_resolvent_mass_invariance():
    rng = np.random.default_rng(28)
    for _ in range(20):
        g = random_connected_graph(rng)
        z = random_field(rng, g)
        for p in (2.0, 4.0, 8.0):
            for K in constraint_sets(g):
                u = resolvent_p(g, p, K, 0.5, z)
                assert abs(np.dot(g.degrees, u - z)) <= 1e-8


def test_resolvent_order_preserving():
    rng = np.random.default_rng(29)
    for _ in range(25):
        g = random_connected_graph(rng)
        z1 = random_field(rng, g)
        z2 = z1 + np.abs(random_field(rng, g, scale=0.5))
        K = ConstraintSet.from_kind(g, "uniform")
        for p in (2.0, 3.0, 7.5):
            u1 = resolvent_p(g, p, K, 0.3, z1)
            u2 = resolvent_p(g, p, K, 0.3, z2)
            assert np.all(u1 <= u2 + 1e-8)


def test_resolvent_contraction_extra_norms():
    rng = np.random.default_rng(30)
    for _ in range(25):
        g = random_connected_graph(rng)
        z1, z2 = random_field(rng, g), random_field(rng, g)
        K = ConstraintSet.from_kind(g, "uniform")
        for p in (2.0, 4.0):
            u1 = resolvent_p(g, p, K, 0.7, z1)
            u2 = resolvent_p(g, p, K, 0.7, z2)
            for q in (1, 2, np.inf):
                assert nu_norm(g, u1 - u2, q) <= nu_norm(g, z1 - z2, q) + 1e-8


def test_resolvent_large_p_from_steep_data(p4, p4_uniform):
    u = resolvent_p(p4, 128.0, p4_uniform, 1e-3, np.array([0.0, 3.0, 0.0, 1.0]))
    assert np.all(np.isfinite(u))
    assert max_relative_slope(u, p4_uniform) < 3.0


def test_resolvent_first_order_condition_on_grid():
    # a non-tree graph whose elimination creates fill
    rng = np.random.default_rng(31)
    g = grid_graph(24, 0.5, 2.0, rng)
    z = random_field(rng, g, scale=1.0)
    lam = 0.05
    for p in (4.0, 16.0):
        for K in constraint_sets(g):
            u = resolvent_p(g, p, K, lam, z)
            # stationarity of (1/2)|v - z|_nu^2 + lam J_p(v): v - z = lam Delta_p v
            resid = u - z - lam * p_laplacian(g, u, p, K)
            assert nu_norm(g, resid) <= 1e-8 * max(1.0, nu_norm(g, z))
            assert abs(np.dot(g.degrees, u - z)) <= 1e-8


def quarter_fields(g):
    return st.lists(st.integers(-8, 8), min_size=g.n_vertices,
                    max_size=g.n_vertices).map(lambda xs: np.array(xs) / 4.0)


RESOLVENT = settings(max_examples=50, deadline=None, database=None)


@RESOLVENT
@given(weighted_graphs(), st.data())
def test_resolvent_first_order_condition_property(g, data):
    # D (v - z) = lam * scatter(flux): the nu-norm of D^{-1} times the
    # difference is what resolvent_p drives below tol * max(1, |z|_nu),
    # or below 1e-6 times that when Newton stalls at rounding
    z = data.draw(quarter_fields(g), label="z")
    lam = data.draw(st.sampled_from([0.1, 1.0]), label="lam")
    for K in constraint_sets(g):
        for p in (2.0, 4.0, 16.0):
            v = resolvent_p(g, p, K, lam, z)
            flux = p_flux(edge_gaps(g, v), p, g.weights, K.bounds)
            resid = g.degrees * (v - z) - lam * scatter(g, flux)
            assert nu_norm(g, resid / g.degrees) <= 1e-6 * max(1.0, nu_norm(g, z))


@RESOLVENT
@given(weighted_graphs(), st.data())
def test_resolvent_nonexpansive_property(g, data):
    z1 = data.draw(quarter_fields(g), label="z1")
    z2 = data.draw(quarter_fields(g), label="z2")
    lam = data.draw(st.sampled_from([0.1, 1.0]), label="lam")
    for K in constraint_sets(g):
        for p in (2.0, 4.0, 16.0):
            v1, v2 = resolvent_p(g, p, K, lam, z1), resolvent_p(g, p, K, lam, z2)
            assert nu_norm(g, v1 - v2) <= nu_norm(g, z1 - z2) + 1e-8


@RESOLVENT
@given(weighted_graphs(), st.data())
def test_resolvent_independent_of_start_property(g, data):
    # the energy is strictly convex: a start anywhere around z, up to the
    # slope scale away, changes the Newton path and not its end
    z = data.draw(quarter_fields(g), label="z")
    offset = data.draw(quarter_fields(g), label="offset")
    lam = data.draw(st.sampled_from([0.1, 1.0]), label="lam")
    p = data.draw(st.floats(2.0, 64.0), label="p")
    scale = max(1.0, nu_norm(g, z))
    for K in constraint_sets(g):
        start = z + 0.5 * np.max(K.bounds) * offset
        cold = resolvent_p(g, p, K, lam, z)
        warm = resolvent_p(g, p, K, lam, z, start=start)
        assert nu_norm(g, warm - cold) <= 1e-9 * scale
        flux = p_flux(edge_gaps(g, warm), p, g.weights, K.bounds)
        resid = g.degrees * (warm - z) - lam * scatter(g, flux)
        assert nu_norm(g, resid / g.degrees) <= 1e-9 * scale


def test_p_energy_no_overflow_on_large_weights():
    # w * |g / c|^(p-2) is one power of the scaled gap: for c = 1/sqrt(w)
    # the factor w^(p/2) never forms on its own (it is inf for w = 1e10 at
    # p = 64), so the tiny flux stays finite; a RuntimeWarning fails the test
    g = build_path(3, weights=[1e10, 1.0])
    K = ConstraintSet.from_kind(g, "inv-sqrt-w")
    u = np.array([0.0, 1e-6, 0.0])
    lap = p_laplacian(g, u, 64.0, K)
    assert np.all(np.isfinite(lap))
    v = resolvent_p(g, 64.0, K, 0.1, u)
    assert np.all(np.isfinite(v))
    assert abs(np.dot(g.degrees, v - u)) <= 1e-12


def test_resolvent_validation(p4, p4_uniform):
    with pytest.raises(ValueError):
        resolvent_p(p4, 1.2, p4_uniform, 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        resolvent_p(p4, 3.0, p4_uniform, -1.0, np.zeros(4))


def test_overflowing_edge_power_is_ignored_inside_an_evaluation(monkeypatch):
    # |g / c|^62 overflows beyond |g / c| of about 9e4: the flux and energy
    # read inf, and no RuntimeWarning (an error in this suite) is raised
    g = build_path(4)
    K = ConstraintSet.from_kind(g, "uniform")
    z = np.array([0.0, 1e6, 0.0, 0.0])
    gaps = edge_gaps(g, z)
    assert p_flux(gaps, 64.0, g.weights, K.bounds).tolist() == [math.inf, -math.inf, 0.0]
    assert p_energy(gaps, 64.0, g.weights, K.bounds) == math.inf
    with pytest.raises(ResolventError, match="^nonfinite gradient at p=64.0, lam=0.1$"):
        resolvent_p(g, 64.0, K, 0.1, z)
    # from the constant of equal mass the first Newton candidates lie near
    # z, where the power overflows: the line search refuses their inf
    # energy and halves, to the values pinned here
    overflowed = []

    def counted(*args):
        out = calculus.conductance(*args)
        overflowed.append(not np.isfinite(out).all())
        return out

    monkeypatch.setattr(proximal, "conductance", counted)
    start = np.full(4, 1e6 / 3)
    for lam, expected in (
        (1e-3, [333333.1177643089, 333334.4832394093, 333333.0937439609,
                333331.7282689508]),
        (0.1, [333333.13295981655, 333334.40218229115, 333333.11063266586,
               333331.8414102693]),
        (10.0, [333333.14708418946, 333334.326838906, 333333.12633088254,
                333331.9465762335]),
    ):
        overflowed.clear()
        assert resolvent_p(g, 64.0, K, lam, z, start=start).tolist() == expected
        assert any(overflowed)


def test_overflowing_gradient_norm_is_ignored():
    # far from the minimiser gr * gr overflows in the gradient's nu-norm:
    # the norm reads inf, Newton goes on, and no RuntimeWarning is raised
    g = build_path(4)
    K = ConstraintSet.from_kind(g, "uniform")
    v = resolvent_p(g, 64.0, K, 0.1, np.array([0.0, 1e3, 0.0, 0.0]))
    assert [x.hex() for x in v.tolist()] == [
        "0x1.4d275c112dc91p+8", "0x1.4e4a89047d7fbp+8",
        "0x1.4d223e3e60737p+8", "0x1.4bff156916506p+8"]


# every solver reads the bounds of K against the edges of g: a K built on
# another graph of the same size must be refused, not read on g's edges
Z = (0.0, 3.0, 0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda g, K: DykstraProjector(g, K),
    lambda g, K: project(g, K, Z),
    lambda g, K: resolvent_p(g, 4.0, K, 0.1, Z),
    lambda g, K: resolvent_p(g, 4.0, K, 0.0, Z),
    lambda g, K: p_laplacian(g, Z, 4.0, K),
    lambda g, K: solve_p_flow(g, 4.0, K, Z, SourceSchedule.zero(g), 0.1, 0.05),
    lambda g, K: solve_growth(g, K, np.zeros(4), SourceSchedule.zero(g), 0.1, 0.05),
    lambda g, K: solve_collapse(g, K, Z, 0.05),
    lambda g, K: converge_p_experiment(g, K, np.zeros(4), SourceSchedule.zero(g),
                                       [4.0], 0.1, 0.05),
    lambda g, K: collapse_via_p_experiment(g, K, Z, 4.0, [0.1], 0.05),
], ids=["projector", "project", "resolvent", "resolvent-lam0", "p_laplacian",
        "p_flow", "growth", "collapse", "converge_p", "collapse_via_p"])
def test_constraint_set_of_another_graph_is_refused(call):
    g = build_path(4)
    foreign = ConstraintSet.from_kind(build_path(4, [1.0, 4.0, 9.0]), "inv-sqrt-w")
    with pytest.raises(ValueError, match="constraint set belongs to a different graph"):
        call(g, foreign)


def test_newton_step_cap_raises(monkeypatch):
    # one Newton step does not reach the minimiser at p = 4: the cap is
    # reported by name, with no RuntimeWarning on the way
    monkeypatch.setattr(proximal, "NEWTON_STEPS", 1)
    g = build_path(4)
    K = ConstraintSet.from_kind(g, "uniform")
    message = re.escape("Newton did not converge in 1 iterations (p=4.0, lam=1.0)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolventError, match=f"^{message}$"):
            resolvent_p(g, 4.0, K, 1.0, np.array([0.0, 1.0, 0.0, 0.0]))


P_REFUSAL = r"^p must be finite and >= 2, got {}$"
LAMBDA_REFUSAL = r"^lambda must be finite and >= 0, got {}$"


@pytest.mark.parametrize("call, message", [
    (lambda g, K: resolvent_p(g, math.nan, K, 0.1, Z), P_REFUSAL.format("nan")),
    (lambda g, K: resolvent_p(g, math.inf, K, 0.1, Z), P_REFUSAL.format("inf")),
    (lambda g, K: resolvent_p(g, 4.0, K, math.nan, Z), LAMBDA_REFUSAL.format("nan")),
    (lambda g, K: resolvent_p(g, 4.0, K, math.inf, Z), LAMBDA_REFUSAL.format("inf")),
    (lambda g, K: p_laplacian(g, Z, math.nan, K), P_REFUSAL.format("nan")),
    (lambda g, K: p_laplacian(g, Z, math.inf, K), P_REFUSAL.format("inf")),
    (lambda g, K: solve_p_flow(g, math.nan, K, Z, SourceSchedule.zero(g), 0.1, 0.05),
     P_REFUSAL.format("nan")),
    (lambda g, K: solve_p_flow(g, math.inf, K, Z, SourceSchedule.zero(g), 0.1, 0.05),
     P_REFUSAL.format("inf")),
], ids=["resolvent-p-nan", "resolvent-p-inf", "resolvent-lam-nan",
        "resolvent-lam-inf", "p_laplacian-p-nan", "p_laplacian-p-inf",
        "p_flow-p-nan", "p_flow-p-inf"])
def test_nonfinite_p_and_lambda_are_refused(p4, p4_uniform, call, message):
    # p = nan or lam = nan used to reach Newton as a nonfinite gradient,
    # and p_laplacian at p = inf returned a field
    with pytest.raises(ValueError, match=message):
        call(p4, p4_uniform)
