import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from graphsand import (ConstraintSet, SourceSchedule, build_graph, build_path,
                       build_star, build_truncated_z, collapse_via_p_experiment,
                       converge_p_experiment, field_values, is_stable,
                       nu_norm, solve_collapse, solve_growth, solve_p_flow)
from graphsand.evolution import MAX_STEPS, Trajectory, TruncationError, time_grid
from graphsand.proximal import CONSTRAINT_KINDS
from conftest import grid_graph, weighted_graphs
from reference import distance_cone, mass_balance, p_flow_cold, time_grid_loop


def z_exact(g, t, alpha=1.0):
    """Closed-form lattice profile: center n + drift, ring k at n - k + drift."""
    n = int(np.floor(np.sqrt(alpha * t) + 1e-12))
    out = np.zeros(g.n_vertices)
    if n == 0:
        out[g.vertex_id("0")] = alpha * t
        return out
    t_n = n * n / alpha
    drift = alpha * (t - t_n) / (2 * n + 1)
    for k in range(-n, n + 1):
        out[g.vertex_id(str(k))] = n - abs(k) + drift
    return out


def linear_flow_exact(g, u0, T):
    """Heat flow of the degree-normalized Laplacian via eigen-decomposition."""
    n = g.n_vertices
    W = np.zeros((n, n))
    for (i, j), w in zip(g.edge_index, g.weights):
        W[i, j] = W[j, i] = w
    D = g.degrees
    lsym = np.eye(n) - W / np.sqrt(np.outer(D, D))
    lam, Q = np.linalg.eigh(lsym)
    return (1 / np.sqrt(D)) * (Q @ (np.exp(-lam * T) * (Q.T @ (np.sqrt(D) * u0))))


# -- schedules & grids ----------------------------------------------------


def test_schedule_evaluation(p4):
    f = SourceSchedule(p4, ((0.0, 1.0, np.array([1.0, 0, 0, 0])),
                            (2.0, 3.0, np.array([0, 2.0, 0, 0]))))
    assert f(0.5)[0] == 1.0
    assert np.all(f(1.5) == 0.0)
    assert f(2.0)[1] == 2.0
    assert np.all(f(3.0) == 0.0)  # segment end is open
    assert f.boundaries() == [0.0, 1.0, 2.0, 3.0]


def test_schedule_fields_are_read_only(p4):
    vals = np.array([1.0, 0, 0, 0])
    f = SourceSchedule(p4, ((0.0, 1.0, vals), (2.0, 3.0, {"x2": 2.0})))
    for t in (0.5, 1.5, 2.5, 9.0):
        with pytest.raises(ValueError, match="read-only"):
            f(t)[0] = 99.0
    assert f(0.2).tolist() == [1.0, 0.0, 0.0, 0.0]
    vals[0] = 7.0  # the schedule holds a copy; the caller's array stays writable
    assert f(0.5)[0] == 1.0
    assert f(1.5) is f(9.0) and not f(9.0).any()  # one shared zero field


def test_schedule_pieces_hold_one_field(p4):
    f = SourceSchedule(p4, ((1.0, 2.0, {"x1": 1.0}), (2.0, 3.0, {"x2": 1.0}),
                            (4.0, math.inf, {"x3": 1.0})))
    for t, end in ((0.0, 1.0), (1.0, 2.0), (1.5, 2.0), (2.0, 3.0),
                   (3.0, 4.0), (3.5, 4.0), (4.0, math.inf)):
        field, until = f.piece(t)
        assert field is f(t) and until == end
    assert SourceSchedule.zero(p4).piece(5.0)[1] == math.inf


def test_schedule_overlap_rejected(p4):
    # the message names both intervals, in time order
    with pytest.raises(ValueError, match=r"^source segments \[0\.0, 2\.0\) and "
                                         r"\[1\.0, 3\.0\) overlap$"):
        SourceSchedule(p4, ((1.0, 3.0, np.zeros(4)), (0.0, 2.0, np.zeros(4))))
    with pytest.raises(ValueError, match="empty"):
        SourceSchedule(p4, ((1.0, 1.0, np.zeros(4)),))


# a schedule's fields are read by vertex position: one built on another
# graph, of the same size or not, must be refused, not read on g's vertices
@pytest.mark.parametrize("call", [
    lambda g, K, f: solve_growth(g, K, np.zeros(3), f, 0.5, 0.05),
    lambda g, K, f: solve_p_flow(g, 4.0, K, np.zeros(3), f, 0.5, 0.05),
    lambda g, K, f: converge_p_experiment(g, K, np.zeros(3), f, [4.0], 0.5, 0.05),
], ids=["growth", "p_flow", "converge_p"])
@pytest.mark.parametrize("n", [3, 4])
def test_schedule_of_another_graph_is_refused(call, n):
    g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    K = ConstraintSet.from_kind(g, "uniform")
    foreign = SourceSchedule.constant(build_path(n), {"x1": 1.0})
    with pytest.raises(ValueError, match="^source schedule belongs to a different graph$"):
        call(g, K, foreign)


def test_time_grid_hits_breakpoints():
    grid = time_grid(0.0, 1.0, 0.3, breakpoints=[0.5])
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert 0.5 in grid
    assert np.all(np.diff(grid) > 0)
    assert np.max(np.diff(grid)) <= 0.3 + 1e-12


def test_time_grid_refuses_too_many_steps_before_building():
    tracemalloc.start()
    try:
        for t_end, dt in ((1e12, 1e-3), (1.0, 1e-300), (10_000.01, 1e-3)):
            with pytest.raises(ValueError, match=f"steps, at most {MAX_STEPS}"):
                time_grid(0.0, t_end, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_time_grid_peak_matches_the_max_steps_comment():
    # the MAX_STEPS comment: time_grid peaks at 16 MB per million steps
    tracemalloc.start()
    try:
        grid = time_grid(0.0, 1.0, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == 1_000_001
    assert peak <= 17_000_000


@pytest.mark.parametrize("t_start, t_end, dt, message", [
    (0.0, 1.0, 0.0, "dt must be positive"),
    (0.0, 1.0, -0.1, "dt must be positive"),
    (1.0, 1.0, 0.1, "need t_end > t_start"),
    (2.0, 1.0, 0.1, "need t_end > t_start"),
], ids=["dt-zero", "dt-negative", "empty-span", "backward-span"])
def test_time_grid_refusals(t_start, t_end, dt, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        time_grid(t_start, t_end, dt)


def test_collapse_via_p_needs_positive_probe_times(p4, p4_uniform):
    u0 = np.array([0.0, 3.0, 0.0, 1.0])
    for probes in ([0.0, 1.0], [-1.0], []):
        with pytest.raises(ValueError, match="^probe times must be positive$"):
            collapse_via_p_experiment(p4, p4_uniform, u0, 8.0, probes, 0.1)


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.data())
def test_time_grid_spans_match_the_python_loop(t_start, span, data):
    # numpy's a + arange(1, steps) * h against a + k * h one float at a
    # time, on spans dt divides (nearly) and spans it does not
    t_end = t_start + span
    steps = data.draw(st.integers(1, 20_000))
    dt = data.draw(st.sampled_from([span / steps, span / steps * (1 + 1e-12),
                                    span / (steps + 0.5)]))
    breakpoints = [t_start + x * span for x in
                   data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))]
    grid = time_grid(t_start, t_end, dt, breakpoints)
    want = time_grid_loop(t_start, t_end, dt, breakpoints)
    assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 200), st.integers(2, 300), st.integers(0, 2 ** 32 - 1),
       st.integers(-300, 300), st.integers(-300, 300),
       st.sampled_from([0.0, 0.3, 0.9]))
def test_vecdot_rows_match_dot_bit_for_bit(rows, cols, seed, lo, hi, zeros):
    # _integrate forms a block's residuals with np.vecdot over its rows,
    # which must give each row's deg.dot bit for bit: signed zeros, tiny
    # and huge magnitudes, and the infinities and NaNs of overflow.  A graph
    # has two vertices or more; on one column dot returns the product
    # itself (-0.0 included), where vecdot adds it to +0.0
    rng = np.random.default_rng(seed)
    lo, hi = sorted((lo, hi))

    def cells(*shape):
        size = 10.0 ** rng.uniform(lo, hi, shape)
        size[rng.random(shape) < zeros] = 0.0
        return rng.choice([-1.0, 1.0], shape) * size

    M, d = cells(rows, cols), cells(cols)
    assert M.flags.c_contiguous
    with np.errstate(all="ignore"):
        got = np.vecdot(M, d)
        want = np.array([d.dot(r) for r in M])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(["graph", "grid", "z"]),
       st.sampled_from(sorted(CONSTRAINT_KINDS) + ["custom"]),
       st.sampled_from([0.05, 1 / 16, 0.03, 0.1]), st.data())
def test_point_source_growth_is_the_distance_cone(shape, kind, dt, data):
    # growth from zero under one to three segments of a source at one
    # vertex, on a weighted graph with cycles, a weighted grid or a Z
    # window, under each named kind and a custom table: every kept state is
    # the distance cone of the mass the source has given
    # (reference.distance_cone), to 1e-9 max(1, h)
    if shape == "graph":
        g = data.draw(weighted_graphs(cycles=True))
    elif shape == "grid":
        g = grid_graph(data.draw(st.integers(2, 5)), 0.5, 2.0,
                       np.random.default_rng(data.draw(st.integers(0, 2 ** 16))))
    else:
        g = build_truncated_z(data.draw(st.integers(5, 10)))
    K = ConstraintSet(g, np.linspace(0.5, 1.5, g.n_edges)) if kind == "custom" \
        else ConstraintSet.from_kind(g, kind)
    x0 = g.vertex_id("0") if shape == "z" else \
        data.draw(st.integers(0, g.n_vertices - 1))
    segments, t = [], 0.0
    for _ in range(data.draw(st.integers(1, 3))):
        a = t + 0.1 * data.draw(st.integers(0, 10))
        t = a + 0.1 * data.draw(st.integers(1, 60))
        segments.append((a, t, data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))))
    T = t + 0.1 * data.draw(st.integers(0, 10))

    def cone(t):
        given = sum(s * (min(t, b) - a) for a, b, s in segments if t > a)
        return distance_cone(g, K.bounds, x0, g.degrees[x0] * given)

    assume(not cone(T)[list(g.guard_index)].any())
    f = SourceSchedule(g, tuple((a, b, {g.vertices[x0]: s}) for a, b, s in segments))
    traj = solve_growth(g, K, np.zeros(g.n_vertices), f, T, dt)
    for t, u in zip(traj.times, traj.states):
        want = cone(t)
        assert np.abs(u - want).max() <= 1e-9 * max(1.0, want[x0]), t


def test_time_grid_exact_division():
    grid = time_grid(0.0, 16.0, 1e-3)
    assert len(grid) == 16001
    assert grid[-1] == 16.0
    assert abs(grid[1000] - 1.0) < 1e-12


def test_trajectory_helpers(p4):
    traj = Trajectory(p4, np.array([0.0, 0.5, 1.0]),
                      np.array([[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0.0]]))
    assert traj.first_time("x1", 2.0) == 1.0
    assert np.all(traj.state_at(0.5) == [1, 0, 0, 0])
    with pytest.raises(KeyError):
        traj.state_at(0.7)
    with pytest.raises(ValueError):
        traj.first_time("x2", 5.0)
    with pytest.raises(ValueError):
        Trajectory(p4, np.array([0.0, 0.0]), np.zeros((2, 4)))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, np.inf, np.nan]])
def test_trajectory_refuses_nan_sample_times(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(build_path(2), times, np.zeros((len(times), 2)))


# -- growth ---------------------------------------------------------------


def test_growth_constant_without_source(p4, p4_uniform):
    u0 = np.full(4, 1.2)
    traj = solve_growth(p4, p4_uniform, u0, SourceSchedule.zero(p4), 0.1, 1e-2)
    assert np.allclose(traj.states, 1.2)
    assert np.max(np.abs(traj.mass_residuals)) == 0.0


def test_growth_rejects_unstable_datum(p4, p4_uniform):
    u0 = np.array([0.0, 3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not stable"):
        solve_growth(p4, p4_uniform, u0, SourceSchedule.zero(p4), 1.0, 1e-2)


def test_growth_z_lattice_profiles():
    g = build_truncated_z(8)
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule.constant(g, {"0": 1.0})
    traj = solve_growth(g, K, np.zeros(g.n_vertices), f, 9.0, 1e-3)
    for t in (1.0, 2.5, 4.0, 6.0, 9.0):
        assert nu_norm(g, traj.state_at(t) - z_exact(g, t), np.inf) <= 5e-3
    assert np.max(np.abs(traj.mass_residuals)) <= 1e-8
    activations = [t for t, _, kind in traj.events if kind == "activated"]
    for expected in (1.0, 4.0, 9.0):
        assert min(abs(t - expected) for t in activations) <= 5e-3


def test_growth_star_rates():
    g = build_star([1.0, 1.0, 1.0])
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule.constant(g, {"x0": 1.0})
    traj = solve_growth(g, K, np.zeros(4), f, 6.0, 1e-3)
    u_a, u_b = traj.state_at(1.5), traj.state_at(4.5)
    rate = (u_b[g.vertex_id("x1")] - u_a[g.vertex_id("x1")]) / 3.0
    assert rate == pytest.approx(0.25, abs=1e-3)
    assert traj.first_time("x0", 2.0) == pytest.approx(5.0, abs=5e-3)
    report = mass_balance(traj, f, g)
    assert report.max_abs <= 1e-8
    assert np.allclose(report.residuals, traj.mass_residuals, atol=1e-12)


def test_growth_two_source_pyramid(p4, p4_uniform):
    # alpha = 3, beta = 1: pyramid (1, 2, 1, 0) at t = 7/8
    f = SourceSchedule.constant(p4, {"x2": 3.0, "x3": 1.0})
    traj = solve_growth(p4, p4_uniform, np.zeros(4), f, 1.2, 1e-3)
    t3 = traj.first_time("x2", 2.0)
    assert t3 == pytest.approx(7 / 8, abs=5e-3)
    assert np.allclose(traj.state_at(t3), [1, 2, 1, 0], atol=5e-3)
    # afterwards the pyramid grows uniformly at (alpha + beta) / 3
    u_a, u_b = traj.state_at(0.95), traj.state_at(1.15)
    assert np.allclose((u_b - u_a) / 0.2, (3 + 1) / 3, atol=1e-3)


def test_growth_monotone_and_stable(p4, p4_uniform):
    f = SourceSchedule.constant(p4, {"x2": 2.0})
    traj = solve_growth(p4, p4_uniform, np.zeros(4), f, 2.0, 1e-2)
    for state in traj.states:
        assert is_stable(state, p4_uniform, 1e-8)
    diffs = np.diff(traj.states, axis=0)
    assert np.min(diffs) >= -1e-8
    assert np.all(traj.states >= -1e-8)


def test_growth_negative_source_excavation(p4, p4_uniform):
    f = SourceSchedule.constant(p4, {"x2": -1.0})
    traj = solve_growth(p4, p4_uniform, np.zeros(4), f, 1.5, 1e-2)
    assert traj.final_state()[p4.vertex_id("x2")] < -1.0
    for state in traj.states:
        assert is_stable(state, p4_uniform, 1e-8)


def test_growth_comparison_principle(p4, p4_uniform):
    f_small = SourceSchedule.constant(p4, {"x2": 1.0})
    f_big = SourceSchedule.constant(p4, {"x2": 1.0, "x3": 0.5})
    a = solve_growth(p4, p4_uniform, np.zeros(4), f_small, 2.0, 1e-2)
    b = solve_growth(p4, p4_uniform, np.zeros(4), f_big, 2.0, 1e-2)
    assert np.all(a.states <= b.states + 1e-8)


def test_growth_guard_band_violation():
    g = build_truncated_z(2)
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule.constant(g, {"0": 1.0})
    with pytest.raises(TruncationError, match="truncation too small"):
        solve_growth(g, K, np.zeros(g.n_vertices), f, 2.0, 1e-2)


def test_growth_guard_band_touched_mid_run():
    # a spike raised on a guard vertex and dug out again; with dyadic steps
    # and source values the final state is exactly zero, so only a check at
    # every step sees the band being reached (first at t = 1/8)
    g = build_truncated_z(3)
    K = ConstraintSet.from_kind(g, "uniform")
    up = field_values(g, {"2": 1.0})
    f = SourceSchedule(g, ((0.0, 0.5, up), (0.5, 1.0, -up)))
    with pytest.raises(TruncationError, match=r"guard band at t=0\.125 "):
        solve_growth(g, K, np.zeros(g.n_vertices), f, 1.0, 0.125)


def test_growth_segment_boundary_is_split(p4, p4_uniform):
    # boundary at an off-grid time: the step is split there, keeping the
    # piecewise-constant source integrated exactly
    f = SourceSchedule(p4, ((0.0, 0.25, field_values(p4, {"x2": 1.0})),))
    traj = solve_growth(p4, p4_uniform, np.zeros(4), f, 1.0, 0.1)
    assert any(abs(t - 0.25) < 1e-12 for t in traj.times)
    assert traj.final_state()[p4.vertex_id("x2")] == pytest.approx(0.25, abs=1e-12)


# -- collapse -------------------------------------------------------------


def test_collapse_stable_datum_is_identity(p4, p4_uniform):
    u0 = np.array([0.0, 1.0, 0.5, 0.2])
    u_inf, traj = solve_collapse(p4, p4_uniform, u0, 1e-3)
    assert np.array_equal(u_inf, u0)
    assert traj.n_samples == 1


def test_collapse_p4_goldens(p4, p4_uniform):
    cases = [
        ({"x2": 3.0, "x4": 1.0}, [4 / 5, 9 / 5, 4 / 5, 1.0]),
        ({"x2": 3.0, "x4": 2.0}, [5 / 6, 11 / 6, 5 / 6, 11 / 6]),
        ({"x2": 3.0, "x4": 1.5}, [4 / 5, 9 / 5, 4 / 5, 1.5]),
    ]
    for u0_map, expected in cases:
        u0 = field_values(p4, u0_map)
        u_inf, traj = solve_collapse(p4, p4_uniform, u0, 1e-4)
        assert np.allclose(u_inf, expected, atol=1e-2)
        assert is_stable(u_inf, p4_uniform, 1e-8)
        assert traj.times[0] == pytest.approx(1 / 3)
        assert np.allclose(traj.states[0], u0 / 3.0)


def test_collapse_p6_golden():
    g = build_path(6)
    K = ConstraintSet.from_kind(g, "uniform")
    u0 = {"x2": 3.0, "x4": 9 / 5, "x5": 2.0}
    u_inf, traj = solve_collapse(g, K, u0, 1e-4)
    assert np.allclose(u_inf, [4 / 5, 9 / 5, 4 / 5, 9 / 5, 5 / 3, 2 / 3], atol=1e-2)
    assert np.max(np.abs(traj.mass_residuals)) <= 1e-8


def test_collapse_monotone_nonnegative(p4, p4_uniform):
    u0 = {"x2": 3.0, "x4": 1.0}
    u_inf, traj = solve_collapse(p4, p4_uniform, u0, 1e-3)
    assert np.all(traj.states >= -1e-12)
    assert np.min(np.diff(traj.states, axis=0)) >= -1e-8
    assert np.all(traj.states >= traj.states[0] - 1e-8)
    for state in traj.states:
        assert is_stable(state, p4_uniform, 1e-8)


def test_collapse_mass_balance_recompute(p4, p4_uniform):
    u0 = {"x2": 3.0}
    _, traj = solve_collapse(p4, p4_uniform, u0, 1e-3)
    report = mass_balance(traj, None, p4)
    assert report.max_abs <= 1e-8
    assert np.allclose(report.residuals, traj.mass_residuals, atol=1e-12)


# -- p-flow ---------------------------------------------------------------


def test_p_flow_constant_without_source(p4, p4_uniform):
    u0 = np.full(4, 0.7)
    traj = solve_p_flow(p4, 4.0, p4_uniform, u0, SourceSchedule.zero(p4), 0.5, 1e-2)
    assert np.allclose(traj.states, 0.7, atol=1e-10)


def test_p_flow_p2_matches_eigen_oracle(p4, p4_uniform):
    rng = np.random.default_rng(31)
    u0 = rng.normal(size=4)
    traj = solve_p_flow(p4, 2.0, p4_uniform, u0, SourceSchedule.zero(p4), 1.0, 1e-4)
    exact = linear_flow_exact(p4, u0, 1.0)
    assert nu_norm(p4, traj.final_state() - exact) <= 1e-3


def test_p_flow_first_order_in_dt(p4, p4_uniform):
    rng = np.random.default_rng(32)
    u0 = rng.normal(size=4)
    exact = linear_flow_exact(p4, u0, 0.5)
    errs = []
    for dt in (2e-3, 1e-3):
        traj = solve_p_flow(p4, 2.0, p4_uniform, u0, SourceSchedule.zero(p4), 0.5, dt)
        errs.append(nu_norm(p4, traj.final_state() - exact))
    assert errs[1] <= 0.65 * errs[0]


@pytest.mark.parametrize("p, digest", [
    (4.0, "07f46d70f7c02136904402446eded2c79edcbcc5e7d963ecad1445ed8cd62c75"),
    (64.0, "b7f68f54e3a5ce47795a91b4afc7f2e4149e7313675a7f2abe7f163b343ef8e9"),
])
def test_uniform_p_flow_bit_identical(p, digest):
    # pinned SHA-256 of the times and states of the warm-started flow;
    # test_p_flow_matches_cold_start_reference bounds its distance to the
    # flow with every resolvent started cold
    g = build_path(31)
    f = SourceSchedule(g, ((0.0, 0.6, {"x16": 1.0}),))
    u0 = np.array([0.5 * (k % 2) for k in range(31)])
    traj = solve_p_flow(g, p, ConstraintSet.from_kind(g, "uniform"), u0, f, 1.0, 0.05)
    assert traj.states.shape == (21, 31)
    got = hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest()
    assert got == digest


def weighted_zigzag():
    """The kinds of the benchmark's p-flow mix on a small case: a weighted
    31-path with inv-sqrt-w bounds, a zigzag datum at 0.9 of each bound and
    two point sources switched off at t = 0.6."""
    weights = [0.5 + 0.125 * ((5 * k) % 13) for k in range(30)]
    g = build_path(31, weights=weights)
    u0 = {"x1": 0.0}
    for k, w in enumerate(weights):
        u0[f"x{k + 2}"] = u0[f"x{k + 1}"] + (0.9 if k % 2 else -0.9) / math.sqrt(w)
    f = SourceSchedule(g, ((0.0, 0.6, {"x16": 2.0, "x7": 1.0}),))
    return g, ConstraintSet.from_kind(g, "inv-sqrt-w"), u0, f


@pytest.mark.parametrize("p, digest", [
    (4.0, "5e7821071a48637abb01e9cd1d499058c87f942ff2a61eaecb9250b0406f9ad5"),
    (64.0, "288c683e99a6e5fe0d918ea195503a3541c02ea23d422865b796717bf824a14b"),
])
def test_weighted_p_flow_bit_identical(p, digest):
    # pinned SHA-256 of the times and states; about three Newton solves a
    # step, so every branch of the resolvent's arithmetic is in the bits
    g, K, u0, f = weighted_zigzag()
    assert is_stable(u0, K)
    traj = solve_p_flow(g, p, K, u0, f, 1.0, 0.05)
    assert traj.states.shape == (21, 31)
    got = hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest()
    assert got == digest


def test_converge_p_table_bit_identical():
    g, K, u0, f = weighted_zigzag()
    table = converge_p_experiment(g, K, u0, f, [4.0, 16.0, 64.0], 0.5, 0.01)
    assert [p for p, _ in table] == [4.0, 16.0, 64.0]
    got = hashlib.sha256(np.array(table).tobytes()).hexdigest()
    assert got == "5f3e82d3473c0bd96fb492d6c191b8c735849154327743f3ea4ef3fb81e5e176"


@pytest.mark.parametrize("p", [2.0, 4.0, 64.0])
def test_p_flow_matches_cold_start_reference(p):
    # each step starts Newton from the last step's correction; the
    # resolvent's minimiser does not depend on the start, so the flow is
    # the cold-started one up to the Newton tolerance, also across the end
    # of the source segment, where the correction jumps
    g = build_path(31)
    K = ConstraintSet.from_kind(g, "inv-sqrt-w")
    f = SourceSchedule(g, ((0.0, 0.37, {"x16": 2.0, "x5": -1.0}),))
    u0 = np.array([0.5 * (k % 2) for k in range(31)])
    traj = solve_p_flow(g, p, K, u0, f, 1.0, 0.02)
    times, states = p_flow_cold(g, p, K, u0, f, 1.0, 0.02)
    assert np.array_equal(traj.times, times)
    scale = max(1.0, max(nu_norm(g, u) for u in states))
    assert max(nu_norm(g, a - b) for a, b in zip(traj.states, states)) <= 1e-8 * scale


def test_p_flow_mass_balance(p4, p4_uniform):
    f = SourceSchedule.constant(p4, {"x2": 1.0})
    traj = solve_p_flow(p4, 5.0, p4_uniform, np.zeros(4), f, 1.0, 1e-2, tol=1e-12)
    report = mass_balance(traj, f, p4)
    assert report.max_abs <= 1e-8


def test_growth_first_order_in_dt_on_lattice():
    # the projected scheme lands exactly on the closed form at grid times, so
    # halving dt is verified against a solver-noise floor here and the genuine
    # O(dt) behaviour is covered by the p-flow test above
    g = build_truncated_z(4)
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule.constant(g, {"0": 1.0})
    errs = []
    for dt in (2e-3, 1e-3):
        traj = solve_growth(g, K, np.zeros(g.n_vertices), f, 2.5, dt)
        errs.append(max(nu_norm(g, traj.state_at(t) - z_exact(g, t), np.inf)
                        for t in (1.0, 1.5, 2.0, 2.5)))
    assert errs[1] <= max(0.65 * errs[0], 1e-9)


# -- experiments ----------------------------------------------------------


def test_converge_p_zero_data(p4, p4_uniform):
    table = converge_p_experiment(p4, p4_uniform, np.zeros(4), SourceSchedule.zero(p4),
                                  [4, 8], 0.5, 1e-2)
    assert all(err <= 1e-9 for _, err in table)


def test_collapse_via_p_decays_self_similarly():
    # criterion 7's datum: after the collapse layer the source-free p-flow,
    # (p - 1)-homogeneous, decays toward the nu-mean ubar like t^(-1/(p-2)).
    # So its distance d(t) to the collapse limit u_inf drifts from t = 1 to
    # t = 2 by at most ln2/(p-2) |u_inf - ubar|_nu, and its distance to the
    # rescaled limit ubar + t^(-1/(p-2)) (u_inf - ubar) does not move
    g = build_path(4)
    K = ConstraintSet.from_kind(g, "uniform")
    u0 = np.array([0.0, 3.0, 0.0, 1.0])
    dt = 1e-3
    u_inf, _ = solve_collapse(g, K, u0, dt)
    ubar = np.dot(g.degrees, u0) / np.sum(g.degrees)
    spread = nu_norm(g, u_inf - ubar)
    assert spread == pytest.approx(1.1106, abs=1e-4)
    for p in (16.0, 64.0, 256.0):
        flow = solve_p_flow(g, p, K, u0, SourceSchedule.zero(g), 2.0, dt)
        at = {t: flow.state_at(t, atol=dt) for t in (1.0, 2.0)}
        d = {t: nu_norm(g, u - u_inf) for t, u in at.items()}
        assert 0 < d[2.0] - d[1.0] <= math.log(2) / (p - 2) * spread
        if p >= 64:
            e = {t: nu_norm(g, u - ubar - t ** (-1 / (p - 2)) * (u_inf - ubar))
                 for t, u in at.items()}
            assert abs(e[2.0] - e[1.0]) <= 0.02 * e[1.0]


def test_converge_p_decreases_model_w(chain_w4):
    f = SourceSchedule.constant(chain_w4, {"x2": 1.0})
    K = ConstraintSet.from_kind(chain_w4, "inv-sqrt-w")
    table = converge_p_experiment(chain_w4, K, np.zeros(3), f, [8, 64], 2.0, 2e-3)
    errs = dict(table)
    assert errs[64.0] < errs[8.0]


def test_converge_p_inverse_weight_order_one_over_p():
    # the inv-w polytope's own p-energy: the sup error falls like 1/p
    g = build_path(5, weights=[2.0, 1.0, 1.0, 2.0])
    f = SourceSchedule.constant(g, {"x3": 1.0})
    table = converge_p_experiment(g, ConstraintSet.from_kind(g, "inv-w"), np.zeros(5),
                                  f, [4, 8, 16, 32, 64], 2.0, 1e-2)
    errs = [err for _, err in table]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    scaled = [p * err for p, err in table]
    assert max(scaled) <= 1.25 * min(scaled)
    assert errs[0] == pytest.approx(0.27, rel=0.1)
    assert errs[-1] == pytest.approx(0.018, rel=0.1)


def test_converge_p_validation(p4, p4_uniform):
    with pytest.raises(ValueError, match="increasing"):
        converge_p_experiment(p4, p4_uniform, np.zeros(4), SourceSchedule.zero(p4),
                              [8, 8], 1.0, 1e-2)
    with pytest.raises(ValueError, match="not stable"):
        converge_p_experiment(p4, p4_uniform, np.array([0, 3.0, 0, 0]),
                              SourceSchedule.zero(p4), [4, 8], 1.0, 1e-2)


def test_collapse_via_p_stable_datum(p4, p4_uniform):
    u0 = np.array([0.0, 0.8, 0.3, 0.1])
    table = collapse_via_p_experiment(p4, p4_uniform, u0, 32.0, [0.5, 1.0], 1e-2)
    # stable datum: the limit is u0 itself and the flow stays nearly frozen
    assert all(dist < 0.1 for _, dist in table)


# -- sampling inside the driver -------------------------------------------


def assert_sampled(full, thin, k):
    """thin keeps states 0, k, 2k, ... and the last of full, bit for bit,
    with the per-step records untouched."""
    keep = list(range(0, full.n_samples, k))
    if keep[-1] != full.n_samples - 1:
        keep.append(full.n_samples - 1)
    assert np.array_equal(thin.times, full.times[keep])
    assert np.array_equal(thin.states, full.states[keep])
    assert np.array_equal(thin.step_times, full.step_times)
    assert np.array_equal(thin.mass_residuals, full.mass_residuals)
    assert thin.events == full.events


def test_growth_sample_every_with_breakpoints(p4, p4_uniform):
    f = SourceSchedule(p4, ((0.0, 0.33, np.array([0, 6.0, 0, 0])),
                            (0.33, 1.0, np.array([0, 0, 3.0, 0]))))
    full = solve_growth(p4, p4_uniform, np.zeros(4), f, 1.0, 0.01)
    assert len(full.step_times) == 100 and full.events
    for k in (4, 7):
        assert_sampled(full, solve_growth(p4, p4_uniform, np.zeros(4), f, 1.0,
                                          0.01, sample_every=k), k)
    with pytest.raises(ValueError, match="sample_every"):
        solve_growth(p4, p4_uniform, np.zeros(4), f, 1.0, 0.01, sample_every=0)


def test_collapse_sample_every_off_multiple(p4, p4_uniform):
    u0 = {"x2": 3.0, "x4": 1.0}
    u_full, full = solve_collapse(p4, p4_uniform, u0, 1e-3)
    assert len(full.step_times) % 10 != 0
    u_thin, thin = solve_collapse(p4, p4_uniform, u0, 1e-3, sample_every=10)
    assert_sampled(full, thin, 10)
    assert np.array_equal(u_thin, u_full)
    with pytest.raises(ValueError, match="every step"):
        mass_balance(thin, None, p4)


def test_p_flow_sample_every(p4, p4_uniform):
    f = SourceSchedule.constant(p4, {"x2": 1.0})
    full = solve_p_flow(p4, 4.0, p4_uniform, np.zeros(4), f, 0.3, 0.01)
    assert len(full.step_times) == 30
    thin = solve_p_flow(p4, 4.0, p4_uniform, np.zeros(4), f, 0.3, 0.01, sample_every=4)
    assert_sampled(full, thin, 4)
