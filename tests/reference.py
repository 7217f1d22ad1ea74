"""Test-only references: results recomputed along a path independent of
the solvers', for the tests to compare against.

time_grid_loop builds time_grid's step times one Python float at a time;
project_oracle solves the projection exactly by enumerating active sets;
mass_balance recomputes the per-step mass residuals of a trajectory from
its states; p_flow_cold steps the p-flow with every resolvent started cold;
growth_per_step and collapse_per_step step the growth model and the
collapse flow with one projection per step; distance_cone is the exact
pile that growth from zero leaves under a source at one vertex;
ldl_solve_rounds runs the LDL^T solve's elimination rounds as separate
diagonal, right-hand-side and fill scatters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from graphsand import ConstraintSet, DykstraProjector, SourceSchedule, Trajectory, \
    TruncationError, WeightedGraph, field_values, is_stable, max_relative_slope, \
    resolvent_p
from graphsand.calculus import edge_gaps
from graphsand.evolution import _EVENT_BAND, time_grid
from graphsand.graph import distance_rows
from graphsand.ldl import _eliminate


def time_grid_loop(t_start: float, t_end: float, dt: float,
                   breakpoints=()) -> np.ndarray:
    """time_grid's steps (without its refusals), each span's times
    appended one by one as a + k * h in Python floats."""
    marks = [t_start]
    for b in sorted(set(float(b) for b in breakpoints)):
        if t_start + 1e-12 < b < t_end - 1e-12:
            marks.append(b)
    marks.append(t_end)
    times = [t_start]
    for a, b in zip(marks, marks[1:]):
        span = b - a
        m = span / dt
        exact_fit = abs(m - round(m)) < 1e-9 * max(1.0, m)
        steps = max(1, int(round(m))) if exact_fit else int(math.ceil(m - 1e-12))
        h = span / steps if exact_fit else dt
        for k in range(1, steps):
            times.append(a + k * h)
        times.append(b)
    return np.asarray(times)


def project_oracle(g: WeightedGraph, K: ConstraintSet, z) -> np.ndarray:
    """Exact projection by enumerating active-set sign patterns.

    Every subset of edge constraints that can be active at the minimizer
    (independent gradients, hence forests) is solved as an
    equality-constrained weighted least-squares system for each sign
    assignment, and the KKT point that is primal and dual feasible with the
    smallest objective wins.  Independent of the Dykstra path; supports at
    most 12 edges.
    """
    if g.n_edges > 12:
        raise ValueError(f"oracle supports at most 12 edges, graph has {g.n_edges}")
    zv = field_values(g, z)
    n, E = g.n_vertices, g.n_edges
    idx = g.edge_index
    c = K.bounds
    D = g.degrees

    if np.all(np.abs(edge_gaps(g, zv)) <= c + 1e-12):
        return zv.copy()

    def objective(v):
        return 0.5 * float(np.dot(D, (v - zv) ** 2))

    def is_forest(edges):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in edges:
            ra, rb = find(int(idx[e, 0])), find(int(idx[e, 1]))
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    best_v = None
    best_obj = np.inf
    feas_tol = 1e-9
    for k in range(1, min(E, n - 1) + 1):
        for subset in combinations(range(E), k):
            if not is_forest(subset):
                continue
            rows = np.zeros((k, n))
            for r, e in enumerate(subset):
                rows[r, idx[e, 0]] = -1.0
                rows[r, idx[e, 1]] = 1.0
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = np.diag(D)
            kkt[:n, n:] = rows.T
            kkt[n:, :n] = rows
            # one rhs column per sign assignment on the subset
            signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * k), indexing="ij"))
            signs = signs.reshape(k, -1)
            rhs = np.zeros((n + k, signs.shape[1]))
            rhs[:n, :] = (D * zv)[:, None]
            rhs[n:, :] = signs * c[list(subset), None]
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            vs = sol[:n, :]
            mus = sol[n:, :]
            gaps = vs[idx[:, 1], :] - vs[idx[:, 0], :]
            primal_ok = np.all(np.abs(gaps) <= c[:, None] + feas_tol, axis=0)
            dual_ok = np.all(mus * signs >= -feas_tol, axis=0)
            for col in np.flatnonzero(primal_ok & dual_ok):
                obj = objective(vs[:, col])
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_v = vs[:, col].copy()
    if best_v is None:
        raise RuntimeError("oracle found no feasible KKT point")  # pragma: no cover
    return best_v


@dataclass(frozen=True)
class MassBalanceReport:
    step_times: np.ndarray
    residuals: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals))) if len(self.residuals) else 0.0


def mass_balance(traj: Trajectory, f: SourceSchedule | None,
                 g: WeightedGraph) -> MassBalanceReport:
    """Recompute per-step mass residuals from a trajectory sampled at every
    step.

    r_n = sum_x (u^{n+1} - u^n) d_x  -  h * sum_x f(t_n) d_x; for collapse
    trajectories pass f=None and the source is the rescaled state v^n / t_n.
    """
    deg = g.degrees
    times, states = traj.times, traj.states
    if len(traj.step_times) != len(times) - 1:
        raise ValueError("mass_balance needs a trajectory kept at every step")
    res = np.empty(len(times) - 1)
    for n in range(len(times) - 1):
        h = times[n + 1] - times[n]
        if f is None:
            fv = states[n] / times[n]
        else:
            fv = f(times[n])
        res[n] = float(np.dot(deg, states[n + 1] - states[n]) - h * np.dot(deg, fv))
    return MassBalanceReport(times[1:], res)


def p_flow_cold(g: WeightedGraph, p: float, K: ConstraintSet, u0,
                f: SourceSchedule, T: float, dt: float,
                tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) of the backward-Euler p-flow on solve_p_flow's grid,
    each step's resolvent started from its own z, with no guess carried
    over from the step before."""
    times = time_grid(0.0, T, dt, f.boundaries())
    states = [field_values(g, u0).copy()]
    for t0, t1 in zip(times, times[1:]):
        h = t1 - t0
        states.append(resolvent_p(g, p, K, h, states[-1] + h * f(t0), tol=tol))
    return times, np.array(states)


def _per_step(g: WeightedGraph, proj: DykstraProjector, u: np.ndarray,
              grid: np.ndarray, drive, sample_every: int) -> Trajectory:
    """The projected backward Euler loop with one projection per step: step
    n projects u + h * drive(t_n, u), checks the guard band at 0, and keeps
    the samples, mass residuals and events the solvers keep."""
    steps = len(grid) - 1
    threshold = proj.K.bounds - _EVENT_BAND * proj.tol
    binding = np.abs(edge_gaps(g, u)) >= threshold
    deg = g.degrees
    times, states, residuals, events = [grid[0]], [u], [], []
    for n, (t0, t1) in enumerate(zip(grid.tolist(), grid[1:].tolist()), 1):
        h = t1 - t0
        fv = drive(t0, u)
        new = proj.project(u + h * fv)
        for i in g.guard_index:
            if abs(new[i]) > 0.0:
                raise TruncationError(
                    "truncation too small: the active support reached the "
                    f"guard band at t={t1!r} (|u| = {abs(new[i]):.3e} "
                    f"at {g.vertices[i]!r})")
        residuals.append(float(np.dot(deg, new - u) - h * np.dot(deg, fv)))
        u = new
        now = proj.abs_gaps >= threshold
        for e in np.flatnonzero(now != binding):
            events.append((t1, g.edges[e], "activated" if now[e] else "deactivated"))
        binding = now
        if n % sample_every == 0 or n == steps:
            times.append(t1)
            states.append(u)
    return Trajectory(g, times, states, grid[1:], np.array(residuals), events)


def growth_per_step(g: WeightedGraph, K: ConstraintSet, u0, f: SourceSchedule,
                    T: float, dt: float, tol: float = 1e-10,
                    sample_every: int = 1) -> Trajectory:
    """solve_growth stepped one projection per step: the projected backward
    Euler loop with no free flight, keeping the same samples, residuals and
    events, and raising the same errors at the same step."""
    proj = DykstraProjector(g, K, tol)
    u = field_values(g, u0).copy()
    if not is_stable(u, K, 1e-8):
        raise ValueError("initial datum not stable for the constraint set")
    return _per_step(g, proj, u, time_grid(0.0, T, dt, f.boundaries()),
                     lambda t, _: f(t), sample_every)


def collapse_per_step(g: WeightedGraph, K: ConstraintSet, u0, dt: float,
                      tol: float = 1e-10,
                      sample_every: int = 1) -> tuple[np.ndarray, Trajectory]:
    """solve_collapse stepped one projection per step, each driven by v/t
    at the step start: no held blocks, the same (v(1), trajectory), and
    the same errors at the same step."""
    proj = DykstraProjector(g, K, tol)
    u0v = field_values(g, u0).copy()
    L = max_relative_slope(u0v, K)
    if L <= 1.0:
        grid, v = np.array([1.0]), u0v
    else:
        grid, v = time_grid(1.0 / L, 1.0, dt), (1.0 / L) * u0v
    traj = _per_step(g, proj, v, grid, lambda t, v: v / t, sample_every)
    return traj.final_state(), traj


def distance_cone(g: WeightedGraph, bounds, x0: int, mass: float) -> np.ndarray:
    """The pile that growth from zero under a source at x0 alone holds once
    the source has given it the nu-mass `mass`: (h - d(x0, .))^+, with d
    the shortest-path distance under the slope bounds as edge lengths and
    h the height at which sum_x d_x (h - d(x0, x))^+ = mass.  That sum is
    linear in h between consecutive sorted distances, so h is solved
    there exactly."""
    _, d = next(distance_rows(g, bounds, [x0]))
    order = np.argsort(d, kind="stable")
    near, weight, moment = d[order].tolist(), 0.0, 0.0
    for k, x in enumerate(order.tolist()):
        weight += g.degrees[x]
        moment += g.degrees[x] * near[k]
        h = (mass + moment) / weight
        if k + 1 == len(near) or h <= near[k + 1]:
            break
    return np.maximum(h - d, 0.0)


def ldl_solve_rounds(g: WeightedGraph, diag, off, rhs) -> np.ndarray:
    """H x = rhs solved on the elimination order of graphsand.ldl, one
    np.bincount per round for the diagonal, one for the right-hand side and
    one over the round's unique fill targets; back substitution scatters
    into x by pivot.  graphsand.ldl.EliminationPlan.solve must equal it bit
    for bit."""
    n_slots, rounds = _eliminate(g)
    d = np.array(diag, dtype=float)
    x = np.array(rhs, dtype=float)
    n = len(d)
    L = np.zeros(n_slots)
    L[:g.n_edges] = off
    rounds = [[np.asarray(a, dtype=np.intp) for a in r] for r in rounds]
    for slot, piv, nbr, fa, fb, ft in rounds:
        h = L[slot]
        l = h / d[piv]
        d -= np.bincount(nbr, weights=l * h, minlength=n)
        x -= np.bincount(nbr, weights=l * x[piv], minlength=n)
        if len(fa):
            ft_u, ft_inv = np.unique(ft, return_inverse=True)
            L[ft_u] -= np.bincount(ft_inv, weights=l[fa] * h[fb], minlength=len(ft_u))
        L[slot] = l
    x /= d
    for slot, piv, nbr, *_ in reversed(rounds):
        x -= np.bincount(piv, weights=L[slot] * x[nbr], minlength=n)
    return x
