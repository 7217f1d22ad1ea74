import hashlib
import io
import itertools
import json
import math
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        K = ConstraintSet.from_kind(g, "uniform")
        u = rng.normal(scale=1.2, size=g.n_vertices)
        assert is_lipschitz_wrt(g, "graph", u) == is_stable(u, K, 1e-9)
        checked += 1


def test_lipschitz_exhaustive_small_fields():
    g = build_path(3)
    K = ConstraintSet.from_kind(g, "uniform")
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
    # the mass check is relative: tiny masses a hundredfold apart differ
    with pytest.raises(ValueError, match="equal mass"):
        TransportInstance(p4, {"x1": 1e-10}, {"x4": 1e-12})
    tiny = TransportInstance(p4, {"x1": 1e-10}, {"x4": 1e-10})
    assert ot_cost_oracle(tiny) == pytest.approx(3e-10)


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
    bounds = ConstraintSet.from_kind(chain_w4, "inv-sqrt-w").bounds
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


def basic_plan(cells, supply, demand):
    """The flows of the basic solution on `cells`, (supply, demand) index
    pairs, or None if the cells hold a cycle or a flow would be negative:
    each step fixes the one cell of a node that has one cell left."""
    left = {("s", i): m for i, m in enumerate(supply)}
    left.update((("d", j), m) for j, m in enumerate(demand))
    cells, plan = set(cells), {}
    while cells:
        count = Counter(n for i, j in cells for n in (("s", i), ("d", j)))
        leaf = next((c for c in sorted(cells) if count["s", c[0]] == 1
                     or count["d", c[1]] == 1), None)
        if leaf is None:
            return None
        i, j = leaf
        amount = left["s", i] if count["s", i] == 1 else left["d", j]
        left["s", i] -= amount
        left["d", j] -= amount
        plan[leaf] = amount
        cells.discard(leaf)
    if any(left.values()) or any(a < 0 for a in plan.values()):
        return None
    return plan


def exact_reference_cost(g, f0, f1):
    """The exact minimum transport cost of the float masses f d, as a
    Fraction: the least cost over the basic solutions of the transportation
    polytope, with the imbalance of the float totals settled on the
    heaviest demand."""
    deg = g.degrees
    supp0, supp1 = np.flatnonzero(f0 > 0), np.flatnonzero(f1 > 0)
    supply = [Fraction(float(f0[k] * deg[k])) for k in supp0]
    demand = [Fraction(float(f1[k] * deg[k])) for k in supp1]
    demand[demand.index(max(demand))] += sum(supply) - sum(demand)
    table = hop_table(g)
    cells = list(itertools.product(range(len(supply)), range(len(demand))))
    plans = (basic_plan(tree, supply, demand) for tree in
             itertools.combinations(cells, len(supply) + len(demand) - 1))
    return min(sum(a * Fraction(table[supp0[i], supp1[j]])
                   for (i, j), a in plan.items())
               for plan in plans if plan is not None)


def test_oracle_equals_exact_reference():
    """Arbitrary float masses, not integer units: the oracle is the exact
    minimum rounded once, with no denominator bound."""
    rng = np.random.default_rng(14)
    for _ in range(150):
        g = random_connected_graph(rng, n_max=6)
        n = g.n_vertices
        f0, f1 = np.zeros(n), np.zeros(n)
        for f in (f0, f1):
            support = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                 replace=False)
            f[support] = rng.uniform(0.01, 3.0, support.size) \
                * 10.0 ** rng.integers(-3, 3, support.size)
        f1 *= np.dot(g.degrees, f0) / np.dot(g.degrees, f1)
        inst = TransportInstance(g, f0, f1)
        assert ot_cost_oracle(inst) == float(exact_reference_cost(g, f0, f1))


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
    K = ConstraintSet.from_kind(g, "uniform")
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
    K = ConstraintSet.from_kind(g, "uniform")
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


def test_instance_equality_is_identity(p4, monkeypatch):
    calls = []
    solve = transport._min_cost_flow
    monkeypatch.setattr(transport, "_min_cost_flow",
                        lambda *args: calls.append(args) or solve(*args))
    f0, f1 = np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0])
    inst, twin = TransportInstance(p4, f0, f1), TransportInstance(p4, f0, f1)
    assert inst == inst and inst != twin and not inst == twin
    table = {inst: "a", twin: "b"}
    assert ot_cost_oracle(inst) == 3.0
    assert table[inst] == "a" and table[twin] == "b"
    assert ot_cost_oracle(inst) == 3.0
    assert len(calls) == 1


@pytest.mark.parametrize("distance", [
    "hops", None, [1.0, 1.0], np.ones(4), np.ones((3, 1)), [1.0, -1.0, 1.0],
    [1.0, 0.0, 1.0], [1.0, math.nan, 1.0], [1.0, math.inf, 1.0],
    [1.0, 1j, 1.0], [[1.0], [1.0, 1.0], []],
], ids=["hops", "none", "too-few", "too-many", "2-d", "negative", "zero",
        "nan", "inf", "complex", "ragged"])
def test_bad_distance_refused_at_construction(p4, distance):
    f = np.array([1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="distance"):
        TransportInstance(p4, f, f, distance)


def full_scan_lipschitz(g, dist, u, tol):
    """Reference check: every pair (a, b), b > a, against the full distance
    row of a, with no reach; the arithmetic of the bounded check."""
    vals = field_values(g, u)
    for a, row in distance_rows(g, dist, range(g.n_vertices - 1)):
        if np.any(np.abs(vals[a] - vals[a + 1:]) > row[a + 1:] + tol):
            return False
    return True


TOL = 2.0 ** -6


def z_window_pile():
    """A growth pile on the R = 200 Z window, rounded to multiples of 2^-20:
    the tent keeps its integer slopes, so every difference is exact."""
    g = build_truncated_z(200)
    f = SourceSchedule.constant(g, {"0": 8.0, "30": 4.0})
    traj = solve_growth(g, ConstraintSet.from_kind(g, "uniform"), np.zeros(g.n_vertices), f,
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
# at t = T/2 and t = T; each run exits 0.  The printed cost is the exact
# minimum for the float masses, rounded once (see the exactness test above)
TRANSPORT_CHECK_STDOUT = {
    ("chain_w4_model2", 1.3): "ca954c4050d023811e11b37a88327f7fe39aed5fe76d9acb4be1afe12367da76",
    ("chain_w4_model2", 2.6): "0cddc777875d66620cacc125241f26c74ec112daff4f842d7812c59d81ea6824",
    ("p4_two_sources_a2b1", 1.25): "c076bc81ebddcc42eef189cb7fa0d9240fe59b23f8356b579149fcf2f36ae6e5",
    ("p4_two_sources_a2b1", 2.5): "31d7fc071be283f4bc7475588872dce023ecf83f012c1ac75a31307c7988e36b",
    ("p4_two_sources_a3b1", 0.75): "982131edcabb98e3b960763b7594a762e745b16915db65f7710783177ce8b1a3",
    ("p4_two_sources_a3b1", 1.5): "f434982b01ed6826c4e5271b59a87fa0c861e831c957de563bba283d7ee4af1f",
    ("star", 6.0): "d0bf2c61c3df702c63782bc668999b915e1e41d25776d17c560e286306758d3a",
    ("star", 12.0): "ccaaccb0d05e939b1542eae424425cc7860fff23f550d4dacb4df4bbbf06783b",
    ("z_lattice", 8.0): "8356d9f4551bdec0a85420cd17a53030e7a4a2df8e0f23b13cbd910c2aff86e7",
    ("z_lattice", 16.0): "c0ba7b7ecafba1d508d34e509c6fd4574bbbc634764041ee7eff99b9b691c38d",
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


def transport_check_lines(argv):
    """Exit code and stdout lines of one `transport-check` run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(["transport-check", *argv])
    return code, out.getvalue().splitlines()


CHECK_LINE = re.compile(r"t=(\S+) pairing=(\S+) cost=(\S+) gap=(\S+)")


@pytest.mark.parametrize("name, t", sorted(TRANSPORT_CHECK_STDOUT),
                         ids=[f"{n}-{t!r}" for n, t in sorted(TRANSPORT_CHECK_STDOUT)])
def test_transport_check_prints_weak_duality(name, t):
    """The exact cost is never below the pairing of a Lipschitz potential,
    beyond the rounding of the pairing itself."""
    code, lines = transport_check_lines([str(SCENARIOS / f"{name}.json"),
                                         "--t", repr(t)])
    assert code == 0
    _, pairing, cost, gap = map(float, CHECK_LINE.fullmatch(lines[0]).groups())
    assert gap == cost - pairing
    assert gap >= -1e-12 * max(1.0, abs(cost))


@pytest.fixture(scope="module")
def short_growth(tmp_path_factory):
    """A 50-step growth scenario on P4 with T = 2.5."""
    doc = json.loads((SCENARIOS / "p4_two_sources_a2b1.json").read_text())
    doc.update(dt=0.05, output=None)
    path = tmp_path_factory.mktemp("fuzz") / "short.json"
    path.write_text(json.dumps(doc))
    return str(path)


odd_numbers = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                               -2.5, 2.5, 2.6, 1e308, 5e-324, 2.2e-308,
                               1.25, 1e-9]) \
    | st.floats(allow_nan=True, allow_infinity=True)
option_values = st.one_of(st.none(), odd_numbers.map(repr),
                          st.sampled_from(["", "x", "1e999", "--tol"]))


@settings(max_examples=150, deadline=None, database=None)
@given(t=option_values, tol=option_values, glued=st.booleans(),
       extra=st.sampled_from([[], ["--frobnicate"], ["--t"], ["2.0"]]))
def test_transport_check_arguments_fuzzed(short_growth, t, tol, glued, extra):
    argv = [short_growth]
    for option, value in (("--t", t), ("--tol", tol)):
        if value is not None:
            argv += [f"{option}={value}"] if glued else [option, value]
    code, lines = transport_check_lines(argv + extra)
    assert code in (0, 1, 2)
    if code != 1:
        assert len(lines) == 2 and CHECK_LINE.fullmatch(lines[0])
        assert lines[1] in ("potential: verified", "potential: NOT optimal")


def test_oracle_refuses_supports_above_its_limit():
    f = np.zeros(60)
    f[:51] = 1.0
    instance = TransportInstance(build_path(60), f, f)
    with pytest.raises(ValueError, match="^transport oracle supports at most 50 "
                                         "support vertices$"):
        ot_cost_oracle(instance)


def test_oracle_cost_of_empty_supports_is_zero(p4):
    assert ot_cost_oracle(TransportInstance(p4, np.zeros(4), np.zeros(4))) == 0.0
    assert ot_cost_oracle(TransportInstance(p4, np.zeros(4), np.zeros(4),
                                            np.ones(3))) == 0.0
