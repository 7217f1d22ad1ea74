"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from graphsand import (ConstraintSet, SourceSchedule, TransportInstance,
                       build_path, build_star, build_truncated_z,
                       collapse_via_p_experiment, converge_p_experiment,
                       is_lipschitz_wrt, is_stable,
                       kantorovich_pairing, nu_norm, ot_cost_oracle, project,
                       resolvent_p, solve_collapse, solve_growth,
                       verify_dual_criteria, verify_potential)
from conftest import random_connected_graph, random_field
from reference import project_oracle
from test_transport import dyadic_masses, hop_table, random_lipschitz


def report(num: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared expensive runs -------------------------------------------------


@pytest.fixture(scope="module")
def z_run():
    g = build_truncated_z(20)
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule.constant(g, {"0": 1.0})
    start = time.perf_counter()
    traj = solve_growth(g, K, np.zeros(g.n_vertices), f, 16.0, 1e-3)
    elapsed = time.perf_counter() - start
    return g, f, traj, elapsed


@pytest.fixture(scope="module")
def star_run():
    g = build_star([1.0, 1.0, 1.0])
    f = SourceSchedule.constant(g, {"x0": 1.0})
    traj = solve_growth(g, ConstraintSet.from_kind(g, "uniform"), np.zeros(4), f, 12.0, 1e-3)
    return g, f, traj


@pytest.fixture(scope="module")
def p4_a3b1_run():
    g = build_path(4)
    f = SourceSchedule.constant(g, {"x2": 3.0, "x3": 1.0})
    traj = solve_growth(g, ConstraintSet.from_kind(g, "uniform"), np.zeros(4), f, 1.5, 1e-3)
    return g, f, traj


@pytest.fixture(scope="module")
def p4_a2b1_run():
    g = build_path(4)
    f = SourceSchedule.constant(g, {"x2": 2.0, "x3": 1.0})
    traj = solve_growth(g, ConstraintSet.from_kind(g, "uniform"), np.zeros(4), f, 2.5, 1e-3)
    return g, f, traj


@pytest.fixture(scope="module")
def chain_run():
    g = build_path(3, weights=[1.0, 4.0])
    f = SourceSchedule.constant(g, {"x2": 1.0})
    traj = solve_growth(g, ConstraintSet.from_kind(g, "inv-sqrt-w"), np.zeros(3),
                        f, 2.6, 1e-3)
    return g, f, traj


@pytest.fixture(scope="module")
def collapse_runs():
    out = {}
    p4 = build_path(4)
    K4 = ConstraintSet.from_kind(p4, "uniform")
    for label, spec in [("b1", {"x2": 3.0, "x4": 1.0}),
                        ("b2", {"x2": 3.0, "x4": 2.0})]:
        start = time.perf_counter()
        u_inf, traj = solve_collapse(p4, K4, spec, 1e-4)
        out[label] = (u_inf, traj, time.perf_counter() - start)
    p6 = build_path(6)
    u0 = {"x2": 3.0, "x4": 9 / 5, "x5": 2.0}
    start = time.perf_counter()
    u_inf, traj = solve_collapse(p6, ConstraintSet.from_kind(p6, "uniform"), u0, 1e-4)
    out["p6"] = (u_inf, traj, time.perf_counter() - start)
    return out


# -- criteria --------------------------------------------------------------


def test_criterion_1_z_lattice_growth(z_run):
    g, _, traj, elapsed = z_run
    height_err = 0.0
    for n in (1, 2, 3, 4):
        u = traj.state_at(float(n * n))
        for k in range(-20, 21):
            expected = max(n - abs(k), 0)
            height_err = max(height_err, abs(u[g.vertex_id(str(k))] - expected))
    activations = [t for t, _, kind in traj.events if kind == "activated"]
    event_err = max(min(abs(t - n * n) for t in activations) for n in (1, 2, 3, 4))
    ok = height_err <= 5e-3 and event_err <= 5e-3 and elapsed < 10.0
    report(1, ok, f"height err {height_err:.2e} (tol 5e-3), event err "
                  f"{event_err:.2e} (tol 5e-3), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_2_star_graph(star_run):
    g, _, traj = star_run
    x0 = g.vertex_id("x0")
    u_a, u_b = traj.state_at(1.5), traj.state_at(4.5)
    rate = (u_b[x0] - u_a[x0]) / 3.0
    t2 = traj.first_time("x0", 2.0)
    t3 = traj.first_time("x0", 3.0)
    ok = abs(rate - 0.25) <= 1e-3 and abs(t2 - 5.0) <= 5e-3 and abs(t3 - 11.0) <= 5e-3
    report(2, ok, f"rate {rate:.6f} (1/4 +- 1e-3), t2 {t2:.4f} (5 +- 5e-3), "
                  f"t3 {t3:.4f} (11 +- 5e-3)")


def test_criterion_3_two_source_p4(p4_a3b1_run, p4_a2b1_run):
    g, _, traj = p4_a3b1_run
    t3 = traj.first_time("x2", 2.0)
    pyramid_err = float(np.max(np.abs(traj.state_at(t3) - [1, 2, 1, 0])))
    ok_a = abs(t3 - 7 / 8) <= 5e-3 and pyramid_err <= 5e-3

    g2, _, traj2 = p4_a2b1_run
    alpha, beta = 2.0, 1.0
    t_m = traj2.first_time("x4", (5 * beta - 2 * alpha) / (3 * (alpha - beta)))
    a_val = traj2.state_at(t_m)[g2.vertex_id("x4")]
    u_a, u_b = traj2.state_at(1.6), traj2.state_at(2.4)
    rates = (u_b - u_a) / 0.8
    rate_err = float(np.max(np.abs(rates - (alpha + beta) / 3)))
    ok_b = abs(t_m - 1.5) <= 1e-2 and abs(a_val - 1 / 3) <= 1e-2 and rate_err <= 1e-3
    report(3, ok_a and ok_b,
           f"a=3,b=1: t3 {t3:.4f} (7/8 +- 5e-3), pyramid err {pyramid_err:.2e}; "
           f"a=2,b=1: t_m {t_m:.4f} (1.5 +- 1e-2), a {a_val:.4f} (1/3 +- 1e-2), "
           f"uniform-rate err {rate_err:.2e} (tol 1e-3)")


def test_criterion_4_collapse_goldens(collapse_runs):
    expected = {"b1": [4 / 5, 9 / 5, 4 / 5, 1.0],
                "b2": [5 / 6, 11 / 6, 5 / 6, 11 / 6],
                "p6": [4 / 5, 9 / 5, 4 / 5, 9 / 5, 5 / 3, 2 / 3]}
    errs, times = {}, {}
    for label, (u_inf, _, elapsed) in collapse_runs.items():
        errs[label] = float(np.max(np.abs(u_inf - np.array(expected[label]))))
        times[label] = elapsed
    ok = all(e <= 1e-2 for e in errs.values()) and all(t < 5.0 for t in times.values())
    report(4, ok, "errs " + ", ".join(f"{k}={errs[k]:.2e}" for k in errs)
           + " (tol 1e-2); runtimes "
           + ", ".join(f"{times[k]:.2f}s" for k in times) + " (< 5s each)")


def test_criterion_5_model2_chain(chain_run):
    g, _, traj = chain_run
    t1 = traj.first_time("x2", 0.5)
    t2 = traj.first_time("x2", 1.0)
    t3 = traj.first_time("x2", 1.5)
    x2 = g.vertex_id("x2")
    u_a, u_b = traj.state_at(0.6), traj.state_at(1.3)
    rate1 = (u_b[x2] - u_a[x2]) / 0.7
    u_c, u_d = traj.state_at(1.5), traj.state_at(2.3)
    rate2 = (u_d[x2] - u_c[x2]) / 0.8
    ok = (abs(t1 - 0.5) <= 5e-3 and abs(t2 - 1.4) <= 5e-3 and abs(t3 - 2.4) <= 5e-3
          and abs(rate1 - 5 / 9) <= 1e-3 and abs(rate2 - 0.5) <= 1e-3)
    report(5, ok, f"t1 {t1:.4f} (0.5), t2 {t2:.4f} (1.4), t3 {t3:.4f} (2.4), "
                  f"all +- 5e-3; rates {rate1:.5f} (5/9), {rate2:.5f} (1/2), +- 1e-3")


def test_criterion_6_p_convergence():
    g = build_truncated_z(20)
    f = SourceSchedule.constant(g, {"0": 1.0})
    K = ConstraintSet.from_kind(g, "uniform")
    table = converge_p_experiment(g, K, np.zeros(g.n_vertices), f,
                                  [8, 16, 32, 64], 3.0, 1e-3)
    errs = [err for _, err in table]
    monotone = all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))
    ok = monotone and errs[-1] <= errs[0] / 3
    report(6, ok, "sup errors " + ", ".join(f"p={p:.0f}:{e:.4f}" for p, e in table)
           + f"; monotone(10% slack)={monotone}, err(64)<=err(8)/3="
           f"{errs[-1] <= errs[0] / 3}")


def test_criterion_7_collapse_via_p():
    g = build_path(4)
    K = ConstraintSet.from_kind(g, "uniform")
    u0 = np.array([0.0, 3.0, 0.0, 1.0])
    d8 = dict(collapse_via_p_experiment(g, K, u0, 8.0, [1.0, 2.0], 1e-3))
    d64 = dict(collapse_via_p_experiment(g, K, u0, 64.0, [1.0, 2.0], 1e-3))
    below = d64[1.0] < d8[1.0] and d64[2.0] < d8[2.0]
    drift = abs(d64[1.0] - d64[2.0])
    time_independent = drift <= 0.1 * d64[1.0]
    ok = below and time_independent
    report(7, ok, f"p=64 dists ({d64[1.0]:.4f}, {d64[2.0]:.4f}) vs p=8 "
                  f"({d8[1.0]:.4f}, {d8[2.0]:.4f}): below={below}; "
                  f"|d(1)-d(2)|={drift:.4f} vs 0.1*d(1)={0.1 * d64[1.0]:.4f}: "
                  f"time-independent={time_independent}")


def test_criterion_8_mass_conservation(z_run, star_run, p4_a3b1_run,
                                       p4_a2b1_run, chain_run, collapse_runs):
    worst = 0.0
    for _, _, traj, _elapsed in [z_run]:
        worst = max(worst, float(np.max(np.abs(traj.mass_residuals))))
    for _, _, traj in (star_run, p4_a3b1_run, p4_a2b1_run, chain_run):
        worst = max(worst, float(np.max(np.abs(traj.mass_residuals))))
    for _, traj, _elapsed in collapse_runs.values():
        worst = max(worst, float(np.max(np.abs(traj.mass_residuals))))
    ok = worst <= 1e-8
    report(8, ok, f"max per-step residual over all golden scenarios "
                  f"{worst:.2e} (tol 1e-8)")


def test_criterion_9_projection_oracle_equivalence():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        g = random_connected_graph(rng, n_max=5)
        kind = rng.choice(["uniform", "inv-sqrt-w", "inv-w", "custom"])
        if kind == "custom":
            K = ConstraintSet(g, rng.uniform(0.3, 2.0, size=g.n_edges))
        else:
            K = ConstraintSet.from_kind(g, kind)
        z = random_field(rng, g, scale=2.0)
        gap = nu_norm(g, project(g, K, z) - project_oracle(g, K, z))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(9, ok, f"500 instances, worst weighted-norm gap {worst:.2e} "
                  f"(tol 1e-8), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_10_transport_duality(z_run):
    g, f, traj, _ = z_run
    t = 2.5  # inside (t1, t2) = (1, 4)
    k = int(np.argmin(np.abs(traj.times - t)))
    h = traj.times[k] - traj.times[k - 1]
    rate = np.maximum((traj.states[k] - traj.states[k - 1]) / h, 0.0)
    u = traj.states[k]
    f_now = f(traj.times[k - 1])
    inst = TransportInstance(g, rate, f_now)
    pairing = kantorovich_pairing(g, u, rate, f_now)
    cost = ot_cost_oracle(inst)
    golden = 4.0 / 3.0
    dual_ok = verify_dual_criteria(g, "graph", u, {"-1": "0", "1": "0"}, rate,
                                   tol=1e-6)
    pot_ok = verify_potential(inst, u, tol=1e-6)

    rng = np.random.default_rng(123)
    weak_ok = True
    for _ in range(200):
        gg = random_connected_graph(rng, n_max=6)
        units = int(rng.integers(1, 40))
        f0 = dyadic_masses(rng, gg.n_vertices, units) / gg.degrees
        f1 = dyadic_masses(rng, gg.n_vertices, units) / gg.degrees
        table = hop_table(gg)
        uu = random_lipschitz(rng, gg, table)
        pr = kantorovich_pairing(gg, uu, f0, f1)
        if pr > ot_cost_oracle(TransportInstance(gg, f0, f1)) + 1e-9:
            weak_ok = False
            break
    ok = (abs(pairing - golden) <= 1e-6 and abs(cost - golden) <= 1e-6
          and pot_ok and dual_ok and weak_ok)
    report(10, ok, f"pairing {pairing:.8f}, cost {cost:.8f} (4/3 +- 1e-6), "
                   f"potential={pot_ok}, dual criteria(T(+-1)=0)={dual_ok}, "
                   f"weak duality 200 instances={weak_ok}")


def test_criterion_11_property_suite(z_run, star_run, p4_a3b1_run,
                                     p4_a2b1_run, chain_run, collapse_runs):
    failures = []
    rng = np.random.default_rng(7)

    # order preservation + q-norm contraction of both resolvents
    for trial in range(40):
        g = random_connected_graph(rng)
        K = ConstraintSet.from_kind(g, "uniform")
        z1 = random_field(rng, g)
        z2 = z1 + np.abs(random_field(rng, g, scale=0.6))
        u1, u2 = project(g, K, z1), project(g, K, z2)
        if not np.all(u1 <= u2 + 1e-8):
            failures.append(f"project order trial {trial}")
        r1 = resolvent_p(g, 6.0, K, 0.4, z1)
        r2 = resolvent_p(g, 6.0, K, 0.4, z2)
        if not np.all(r1 <= r2 + 1e-8):
            failures.append(f"resolvent order trial {trial}")
        za, zb = random_field(rng, g), random_field(rng, g)
        pa, pb = project(g, K, za), project(g, K, zb)
        ra, rb = resolvent_p(g, 4.0, K, 0.7, za), resolvent_p(g, 4.0, K, 0.7, zb)
        for q in (1, 2, np.inf):
            if nu_norm(g, pa - pb, q) > nu_norm(g, za - zb, q) + 1e-8:
                failures.append(f"project {q}-norm trial {trial}")
            if nu_norm(g, ra - rb, q) > nu_norm(g, za - zb, q) + 1e-8:
                failures.append(f"resolvent {q}-norm trial {trial}")

    # comparison principle under f <= f~ with the same datum
    p4 = build_path(4)
    K4 = ConstraintSet.from_kind(p4, "uniform")
    f_small = SourceSchedule.constant(p4, {"x2": 1.0})
    f_big = SourceSchedule.constant(p4, {"x2": 1.0, "x3": 0.7})
    low = solve_growth(p4, K4, np.zeros(4), f_small, 2.0, 1e-2)
    high = solve_growth(p4, K4, np.zeros(4), f_big, 2.0, 1e-2)
    if not np.all(low.states <= high.states + 1e-8):
        failures.append("comparison principle")

    # stability of every growth/collapse sample; monotonicity under f >= 0
    fixtures = [(z_run[0], z_run[2]), (star_run[0], star_run[2]),
                (p4_a3b1_run[0], p4_a3b1_run[2]), (p4_a2b1_run[0], p4_a2b1_run[2])]
    uniform_cache = {}
    for g, traj in fixtures:
        K = uniform_cache.setdefault(id(g), ConstraintSet.from_kind(g, "uniform"))
        step = max(1, traj.n_samples // 400)
        for state in traj.states[::step]:
            if not is_stable(state, K, 1e-8):
                failures.append("growth sample stability")
                break
        if np.min(np.diff(traj.states[::step], axis=0)) < -1e-8:
            failures.append("growth monotonicity")
    gch, _, trch = chain_run
    Kch = ConstraintSet.from_kind(gch, "inv-sqrt-w")
    if not all(is_stable(s, Kch, 1e-8) for s in trch.states[::10]):
        failures.append("chain sample stability")
    for label, (u_inf, traj, _) in collapse_runs.items():
        Kc = ConstraintSet.from_kind(traj.graph, "uniform")
        step = max(1, traj.n_samples // 400)
        if not all(is_stable(s, Kc, 1e-8) for s in traj.states[::step]):
            failures.append(f"collapse {label} sample stability")
        if np.min(np.diff(traj.states[::step], axis=0)) < -1e-8:
            failures.append(f"collapse {label} monotonicity")

    ok = not failures
    report(11, ok, "order preservation, 1/2/inf-norm contraction, comparison, "
                   "stability, monotonicity all at 1e-8"
           + ("" if ok else f"; failures: {failures[:4]}"))
