import itertools

import numpy as np
import pytest

from graphsand import (ConstraintSet, SourceSchedule, TransportInstance,
                       build_path, build_truncated_z, distance_rows,
                       field_values, is_lipschitz_wrt, is_stable,
                       kantorovich_pairing, ot_cost_oracle, solve_growth,
                       verify_dual_criteria, verify_potential)
from conftest import random_connected_graph


def dyadic_masses(rng, n, total_units):
    """Random nonnegative dyadic densities with exactly `total_units`/16."""
    cuts = np.sort(rng.integers(0, total_units + 1, size=n - 1))
    units = np.diff(np.concatenate([[0], cuts, [total_units]]))
    return units / 16.0


def hop_table(g):
    """(n, n) array of hop distances, row k from vertex id k."""
    return np.array([row for _, row in distance_rows(g)])


def random_lipschitz(rng, g, table):
    u = rng.normal(scale=2.0, size=g.n_vertices)
    worst = max(abs(u[a] - u[b]) / table[a, b]
                for a in range(g.n_vertices) for b in range(g.n_vertices) if a != b)
    return u * float(rng.uniform(0.1, 1.0)) / max(worst, 1e-9)


def test_lipschitz_basics(p4):
    assert is_lipschitz_wrt(p4, "graph", np.full(4, 3.0))
    assert is_lipschitz_wrt(p4, "graph", np.array([0.0, 1.0, 2.0, 3.0]))
    assert not is_lipschitz_wrt(p4, "graph", np.array([0.0, 3.0, 0.0, 0.0]))


def test_lipschitz_equals_uniform_stability():
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 200:
        g = random_connected_graph(rng, n_max=6)
        K = ConstraintSet.uniform(g)
        u = rng.normal(scale=1.2, size=g.n_vertices)
        assert is_lipschitz_wrt(g, "graph", u) == is_stable(u, K, 1e-9)
        checked += 1


def test_lipschitz_exhaustive_small_fields():
    g = build_path(3)
    K = ConstraintSet.uniform(g)
    levels = np.linspace(-1.5, 1.5, 7)
    for u in itertools.product(levels, repeat=3):
        u = np.array(u)
        assert is_lipschitz_wrt(g, "graph", u) == is_stable(u, K, 1e-9)


def test_pairing_basics(p4):
    f = np.array([1.0, 0.0, 0.5, 0.0])
    assert kantorovich_pairing(p4, np.ones(4) * 4.2, f, f) == 0.0
    # constant potential against equal nu-masses (both 2.0)
    f1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert kantorovich_pairing(p4, np.full(4, 2.0), f, f1) == pytest.approx(0.0)


def test_instance_validation(p4):
    with pytest.raises(ValueError, match="equal mass"):
        TransportInstance(p4, np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    with pytest.raises(ValueError, match="nonnegative"):
        TransportInstance(p4, np.array([-1.0, 0, 0, 1.0]),
                          np.array([0, 0, 0, 0.5]))


def test_oracle_diagonal(p4):
    f = np.array([0.3, 0.1, 0.0, 0.7])
    assert ot_cost_oracle(TransportInstance(p4, f, f)) == 0.0


def test_oracle_single_pair(p4):
    inst = TransportInstance(p4, np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]))
    assert ot_cost_oracle(inst) == pytest.approx(3.0)


def test_oracle_z_lattice_instance():
    g = build_truncated_z(5)
    f0 = field_values(g, {"-1": 1 / 3, "0": 1 / 3, "1": 1 / 3})
    f1 = field_values(g, {"0": 1.0})
    inst = TransportInstance(g, f0, f1)
    assert ot_cost_oracle(inst) == pytest.approx(4 / 3, abs=1e-12)
    u = field_values(g, {"-1": 0.5, "0": 1.5, "1": 0.5})
    assert kantorovich_pairing(g, u, f0, f1) == pytest.approx(4 / 3, abs=1e-12)
    assert verify_potential(inst, u, tol=1e-9)
    assert not verify_potential(inst, np.zeros(g.n_vertices), tol=1e-9)


def test_oracle_symmetry_and_weighted_metric(chain_w4):
    bounds = ConstraintSet.inverse_sqrt_weight(chain_w4).bounds
    f0 = np.array([1.0, 0.0, 0.0])
    f1 = np.array([0.0, 0.0, 0.25])
    a = ot_cost_oracle(TransportInstance(chain_w4, f0, f1, bounds))
    b = ot_cost_oracle(TransportInstance(chain_w4, f1, f0, bounds))
    assert a == pytest.approx(b)
    assert a == pytest.approx(1.5)  # unit nu-mass moved across d_w = 3/2


def brute_force_cost(supply, demand, cost):
    """Minimum over all integer transport plans, by exhaustive recursion."""
    ns = len(supply)
    best = [np.inf]

    def go(i, rem_d, acc):
        if acc >= best[0]:
            return
        if i == ns:
            best[0] = acc
            return
        # enumerate all splits of supply[i] over the demands
        def split(j, left, rem, cost_i):
            if cost_i + acc >= best[0]:
                return
            if j == len(rem) - 1:
                if rem[j] >= left:
                    rem2 = list(rem)
                    rem2[j] -= left
                    go(i + 1, rem2, acc + cost_i + left * cost[i][j])
                return
            for take in range(min(left, rem[j]) + 1):
                rem2 = list(rem)
                rem2[j] -= take
                split(j + 1, left - take, rem2, cost_i + take * cost[i][j])

        split(0, supply[i], rem_d, 0.0)

    go(0, list(demand), 0.0)
    return best[0]


def test_oracle_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        g = random_connected_graph(rng, n_max=4)
        n = g.n_vertices
        units = int(rng.integers(1, 7))
        m0 = np.diff(np.concatenate([[0], np.sort(rng.integers(0, units + 1, n - 1)), [units]]))
        m1 = np.diff(np.concatenate([[0], np.sort(rng.integers(0, units + 1, n - 1)), [units]]))
        inst = TransportInstance(g, m0 / g.degrees, m1 / g.degrees)
        cost = hop_table(g).tolist()
        expected = brute_force_cost(list(m0), list(m1), cost)
        assert ot_cost_oracle(inst) == pytest.approx(expected, abs=1e-9)


def test_verify_potential_rejects_infeasible(p4):
    inst = TransportInstance(p4, np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]))
    with pytest.raises(ValueError, match="Lipschitz"):
        verify_potential(inst, np.array([0.0, 5.0, 0.0, 0.0]))


def test_weak_duality_randomized():
    rng = np.random.default_rng(41)
    for _ in range(200):
        g = random_connected_graph(rng, n_max=6)
        n = g.n_vertices
        units = int(rng.integers(1, 40))
        m0 = dyadic_masses(rng, n, units)
        m1 = dyadic_masses(rng, n, units)
        f0 = m0 / g.degrees  # equal nu-masses by construction
        f1 = m1 / g.degrees
        inst = TransportInstance(g, f0, f1)
        table = hop_table(g)
        u = random_lipschitz(rng, g, table)
        assert is_lipschitz_wrt(g, "graph", u)
        pairing = kantorovich_pairing(g, u, f0, f1)
        assert pairing <= ot_cost_oracle(inst) + 1e-9


def test_dual_criteria_identity_map(p4):
    u = np.array([0.0, 1.0, 1.5, 1.0])
    f0 = np.array([0.5, 0.5, 0.0, 0.0])
    assert verify_dual_criteria(p4, "graph", u, {}, f0)


def test_dual_criteria_z_map():
    g = build_truncated_z(5)
    u = field_values(g, {"-1": 0.2, "0": 1.2, "1": 0.2})
    f0 = field_values(g, {"-1": 1 / 3, "0": 1 / 3, "1": 1 / 3})
    T = {"-1": "0", "1": "0"}
    assert verify_dual_criteria(g, "graph", u, T, f0)
    flattened = field_values(g, {"-1": 0.2, "0": 0.2, "1": 0.2})
    assert not verify_dual_criteria(g, "graph", flattened, T, f0)
    not_lipschitz = field_values(g, {"0": 9.0})
    assert not verify_dual_criteria(g, "graph", not_lipschitz, T, f0)


def test_solver_states_are_potentials():
    """Growth states certify optimal transport of the source to the rate."""
    g = build_truncated_z(6)
    K = ConstraintSet.uniform(g)
    f = SourceSchedule.constant(g, {"0": 1.0})
    dt = 1e-3
    traj = solve_growth(g, K, np.zeros(g.n_vertices), f, 3.0, dt)
    for t in (0.5, 1.5, 2.5):
        k = int(np.argmin(np.abs(traj.times - t)))
        rate = (traj.states[k] - traj.states[k - 1]) / (traj.times[k] - traj.times[k - 1])
        rate = np.maximum(rate, 0.0)
        inst = TransportInstance(g, rate, f(traj.times[k - 1]))
        assert verify_potential(inst, traj.states[k], tol=10 * dt)


def test_star_growth_potential():
    from graphsand import build_star
    g = build_star([1.0, 1.0, 1.0])
    K = ConstraintSet.uniform(g)
    f = SourceSchedule.constant(g, {"x0": 1.0})
    dt = 1e-3
    traj = solve_growth(g, K, np.zeros(4), f, 3.0, dt)
    k = int(np.argmin(np.abs(traj.times - 3.0)))
    rate = np.maximum((traj.states[k] - traj.states[k - 1]) / dt, 0.0)
    inst = TransportInstance(g, rate, f(traj.times[k - 1]))
    assert verify_potential(inst, traj.states[k], tol=10 * dt)
