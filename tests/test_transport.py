import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import graphsand.transport as transport
from graphsand import (ConstraintSet, SourceSchedule, TransportInstance,
                       build_graph, build_path, build_truncated_z,
                       distance_rows, field_values, is_lipschitz_wrt,
                       is_stable, kantorovich_pairing, ot_cost_oracle,
                       solve_growth, verify_dual_criteria, verify_potential)
from graphsand.cli import run_command
from conftest import random_connected_graph

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
    # tol = 0 is the exact bound
    assert is_lipschitz_wrt(p4, "graph", (0.0, 1.0, 2.0, 3.0), tol=0)
    assert not is_lipschitz_wrt(p4, "graph", (0.0, 1.0, 2.0, 3.5), tol=0)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9],
                         ids=["nan", "inf", "-inf", "negative"])
def test_non_finite_or_negative_tol_refused(p4, tol):
    # a NaN or infinite slack once certified any field and any potential
    inst = TransportInstance(p4, np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]))
    with pytest.raises(ValueError, match="tol"):
        is_lipschitz_wrt(p4, "graph", (0, 9, 0, 0), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        verify_potential(inst, np.zeros(4), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        verify_dual_criteria(p4, "graph", np.zeros(4), {}, np.ones(4), tol=tol)


def test_instance_keeps_read_only_copies(p4):
    f0 = np.array([1.0, 0, 0, 0])
    f1 = np.array([0, 0, 0, 1.0])
    lengths = np.ones(p4.n_edges)
    inst = TransportInstance(p4, f0, f1, lengths)
    f0[:] = [0, 0, 0, 1.0]  # would break neither the mass check nor the sign
    lengths[:] = 5.0
    assert inst.f0.tolist() == [1.0, 0, 0, 0]
    assert inst.distance.tolist() == [1.0, 1.0, 1.0]
    assert ot_cost_oracle(inst) == 3.0
    for array in (inst.f0, inst.f1, inst.distance):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    assert ot_cost_oracle(inst) == 3.0


def test_oracle_solved_once_per_instance(p4, monkeypatch):
    calls = []
    solve = transport._min_cost_flow

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(transport, "_min_cost_flow", counting)
    inst = TransportInstance(p4, np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]))
    assert ot_cost_oracle(inst) == 3.0
    assert verify_potential(inst, np.array([0.0, 1.0, 2.0, 3.0]))
    assert ot_cost_oracle(inst) == 3.0
    assert len(calls) == 1
    other = TransportInstance(p4, inst.f0, inst.f1)
    assert ot_cost_oracle(other) == 3.0
    assert len(calls) == 2


def full_scan_lipschitz(g, dist, u, tol):
    """Reference check: every pair (a, b), b > a, against the full distance
    row of a, with no reach; the arithmetic of the bounded check."""
    vals = field_values(g, u)
    lengths = None if isinstance(dist, str) else dist
    for a, row in distance_rows(g, lengths, range(g.n_vertices - 1)):
        if np.any(np.abs(vals[a] - vals[a + 1:]) > row[a + 1:] + tol):
            return False
    return True


TOL = 2.0 ** -6


def z_window_pile():
    """A growth pile on the R = 200 Z window, rounded to multiples of 2^-20:
    the tent keeps its integer slopes, so every difference is exact."""
    g = build_truncated_z(200)
    f = SourceSchedule.constant(g, {"0": 8.0, "30": 4.0})
    traj = solve_growth(g, ConstraintSet.uniform(g), np.zeros(g.n_vertices), f,
                        4.0, 1e-2)
    return g, "graph", np.round(traj.states[-1] * 2.0 ** 20) / 2.0 ** 20


def weighted_grid_tent():
    """A tent of height 3 about the middle of a 12 x 12 grid with edge
    lengths k/8, in that weighted metric: every sum is exact."""
    rng = np.random.default_rng(1212)
    edges = []
    for r in range(12):
        for c in range(12):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 < 12 and c2 < 12:
                    edges.append((f"r{r:02d}c{c:02d}", f"r{r2:02d}c{c2:02d}", 1.0))
    g = build_graph(edges)
    lengths = rng.integers(4, 17, size=g.n_edges) / 8.0
    (_, row), = distance_rows(g, lengths, [g.vertex_id("r06c06")])
    return g, lengths, np.maximum(3.0 - row, 0.0)


@pytest.mark.parametrize("case", [z_window_pile, weighted_grid_tent])
def test_bounded_check_equals_full_scan(case):
    g, dist, u = case()
    peak = int(np.argmax(u))
    assert full_scan_lipschitz(g, dist, u, 0.0)
    for excess, expected in ((TOL, True), (TOL + 2.0 ** -10, False)):
        # the peak sits at d + tol above its tent, or 2^-10 past that
        v = u.copy()
        v[peak] += excess
        assert full_scan_lipschitz(g, dist, v, TOL) is expected
        assert is_lipschitz_wrt(g, dist, v, tol=TOL) is expected
        # the same fields moved off their grid: rounded sums, same decisions
        w = v * (1.0 + 2.0 ** -40) + 0.1
        assert is_lipschitz_wrt(g, dist, w, tol=TOL) == \
            full_scan_lipschitz(g, dist, w, TOL)


# SHA-256 of the `transport-check` stdout of every shipped growth scenario
# at t = T/2 and t = T, taken before the Lipschitz check was bounded by the
# spread of u and the oracle memoized; each run exits 0
TRANSPORT_CHECK_STDOUT = {
    ("chain_w4_model2", 1.3): "78464e2d307425035e033aff2d7ff66ef841e13e508ce352278e4dd98b179542",
    ("chain_w4_model2", 2.6): "6e07700b9f059a94948c55ead68e544339676626f6cd252648930e929b42bab6",
    ("p4_two_sources_a2b1", 1.25): "15e40626152c45254fbdf2156bf1e8535a2730e2df958525ec9edc0715d2afbd",
    ("p4_two_sources_a2b1", 2.5): "31d7fc071be283f4bc7475588872dce023ecf83f012c1ac75a31307c7988e36b",
    ("p4_two_sources_a3b1", 0.75): "02e31d60fdcd2887055629027e3a69697e6fd8515094a50e0153f798e4257644",
    ("p4_two_sources_a3b1", 1.5): "bb3e18caf241f54b4600f1f1be37a870bd66a24ae1c6001d2613114459fcaa7f",
    ("star", 6.0): "925ee2971c1fdbeeb90b80424ff264f4e779b054cf435ed64f1ec7941ab41551",
    ("star", 12.0): "1d62bb638f15c313a877581a26425dc12a913d5c4d93964fa7e68085d3179891",
    ("z_lattice", 8.0): "b24155369c08eac0384d0258648588202ae933d4be0834e51725c8cc1dcb484e",
    ("z_lattice", 16.0): "0277145b5e0cafcacf8c345759500f2b7f10d64f0e28c7085cd4826563d95f98",
}


def test_transport_check_covers_every_growth_scenario():
    growth = {p.stem: json.loads(p.read_text())["T"]
              for p in SCENARIOS.glob("*.json")
              if json.loads(p.read_text())["mode"] == "growth"}
    assert sorted(TRANSPORT_CHECK_STDOUT) == \
        sorted((name, t) for name, T in growth.items() for t in (T / 2, T))


@pytest.mark.parametrize("name, t", sorted(TRANSPORT_CHECK_STDOUT),
                         ids=[f"{n}-{t!r}" for n, t in sorted(TRANSPORT_CHECK_STDOUT)])
def test_transport_check_stdout_byte_identical(name, t, capsys):
    argv = ["transport-check", str(SCENARIOS / f"{name}.json"), "--t", repr(t)]
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSPORT_CHECK_STDOUT[name, t]
