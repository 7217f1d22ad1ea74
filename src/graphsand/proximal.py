"""Slope-constraint sets, weighted projection onto them, and the p-energy
resolvent: the two backward-Euler building blocks.

The projection is Dykstra's cyclic scheme over the per-edge interval
constraints in the degree-weighted inner product.  Each single-edge
projection has a closed form, and the per-edge correction memory is kept as
a scalar multiplier mu_e with v = z - D^{-1} A' mu maintained exactly, which
makes the iteration mass-conserving to machine precision and lets solvers
warm-start the multipliers across time steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import _bounds_on, _check_p, conductance, edge_gaps, scatter
from .graph import WeightedGraph, field_values
from .ldl import elimination_plan

__all__ = [
    "CONSTRAINT_KINDS",
    "ConstraintSet",
    "ProjectionError",
    "ResolventError",
    "is_stable",
    "max_relative_slope",
    "DykstraProjector",
    "project",
    "resolvent_p",
]

MAX_SWEEPS = 100_000   # Dykstra sweeps per projection
NEWTON_STEPS = 500     # Newton steps per resolvent evaluation
# a gap at magnitude M is known to within about ROUNDING * M: the floor of
# the projector's stopping rule and of its stability check, worked out by a
# sweep loop that has not met tol after FLOOR_AFTER sweeps
ROUNDING = 16 * np.finfo(float).eps
FLOOR_AFTER = 16


# the slope bounds of each named stable set, keyed by its token in scenario
# files and on the command line; "custom" (a user table) is the only other
CONSTRAINT_KINDS = {
    "uniform": lambda g: np.ones(g.n_edges),
    "inv-sqrt-w": lambda g: 1.0 / np.sqrt(g.weights),
    "inv-w": lambda g: 1.0 / g.weights,
}


class ProjectionError(RuntimeError):
    """Dykstra failed to reach the requested tolerance."""


class ResolventError(RuntimeError):
    """Newton iteration for the p-energy resolvent failed."""


@dataclass(frozen=True)
class ConstraintSet:
    """Per-edge slope bounds c_xy > 0 encoding a stable-configuration set:
    a CONSTRAINT_KINDS entry ("uniform" bounds every slope by 1,
    "inv-sqrt-w" by 1/sqrt(w_xy), "inv-w" by 1/w_xy) or a custom table.
    """

    graph: WeightedGraph
    bounds: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (self.graph.n_edges,):
            raise ValueError(f"expected {self.graph.n_edges} bounds, got {b.shape}")
        if np.any(b <= 0) or not np.all(np.isfinite(b)):
            raise ValueError("slope bounds must be strictly positive")
        object.__setattr__(self, "bounds", b)

    @classmethod
    def from_kind(cls, g: WeightedGraph, kind: str) -> "ConstraintSet":
        """Named constraint set; kind is a CONSTRAINT_KINDS token."""
        if not isinstance(kind, str) or kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {kind!r}")
        return cls(g, CONSTRAINT_KINDS[kind](g))


def is_stable(u, K: ConstraintSet, tol: float = 1e-9) -> bool:
    """True iff |u(y) - u(x)| <= c_xy + tol on every edge."""
    vals = field_values(K.graph, u)
    return bool(np.all(np.abs(edge_gaps(K.graph, vals)) <= K.bounds + tol))


def max_relative_slope(u, K: ConstraintSet) -> float:
    """max over edges of |u(y) - u(x)| / c_xy: the L of the collapse setup."""
    vals = field_values(K.graph, u)
    return float(np.max(np.abs(edge_gaps(K.graph, vals)) / K.bounds))


class _SweepPlan(NamedTuple):
    """What a sweep, or a held step, over one active list touches."""
    ends: np.ndarray      # vertex ids of the active edges' ends, sorted
    sweep: list           # per active edge: (edge, local i, local j,
                          # 1/d_i + 1/d_j, its inverse, bound, 1/d_i, 1/d_j)
    incident: np.ndarray  # edges with an end among `ends`, sorted
    incident_ends: np.ndarray  # their (i, j) vertex ids
    at_ends: np.ndarray   # incident, as a mask over all edges
    fold: list            # hold's fold table, made on its first use:
                          # (edge, local i, local j, d_i, d_j) per edge


class _Refused(Exception):
    """A held row that project() would not give: the block stops before it."""


class DykstraProjector:
    """Cyclic Dykstra projection onto a slope polytope at tolerance tol.

    Each call continues from the multipliers and the active list the last
    one left, so solvers keep one instance per run; a fresh instance, or
    reset(), starts cold.  The active list holds every edge with mu != 0,
    since mu is only written in the sweep over it.  abs_gaps holds |gaps|
    of the last result.
    """

    def __init__(self, g: WeightedGraph, K: ConstraintSet, tol: float = 1e-10):
        bounds = _bounds_on(g, K)
        self.graph = g
        self.K = K
        i, j = g.edge_index.T
        deg = g.degrees
        inv_di = 1.0 / deg[i]
        inv_dj = 1.0 / deg[j]
        invsum = inv_di + inv_dj
        # plain-float copies: the sweep loop indexes scalars, which is
        # much slower on numpy arrays
        self._il = i.tolist()
        self._jl = j.tolist()
        self._degl = deg.tolist()
        self._invdil = inv_di.tolist()
        self._invdjl = inv_dj.tolist()
        self._invsuml = invsum.tolist()
        self._coefl = (1.0 / invsum).tolist()
        self._cl = bounds.tolist()
        self.tol = tol
        self._limit = bounds + tol
        self._plan_key = self._plan = None
        self.abs_gaps = None
        self.reset()

    def reset(self):
        self.mu = [0.0] * self.graph.n_edges
        self._active = []

    def holds_multipliers(self) -> bool:
        """True when some multiplier is nonzero: project() then moves even
        a stable input."""
        mu = self.mu
        return any(mu[e] != 0.0 for e in self._active)

    def _sweep_plan(self, active: list, held: bool = False) -> _SweepPlan:
        """The plan of an active list, kept until the list changes; the
        list is rebuilt on every call, so it is compared by value.  With
        held, its fold table is made, once per plan: project() never reads
        it, so it does not pay for it.
        """
        if active != self._plan_key:
            il, jl = self._il, self._jl
            invsum, coef, cl = self._invsuml, self._coefl, self._cl
            invdi, invdj = self._invdil, self._invdjl
            ends = sorted({x for e in active for x in (il[e], jl[e])})
            local = {x: k for k, x in enumerate(ends)}
            at_end = np.zeros(self.graph.n_vertices, dtype=bool)
            at_end[ends] = True
            at_ends = at_end[self.graph.edge_index].any(axis=1)
            incident = at_ends.nonzero()[0]
            self._plan = _SweepPlan(
                np.array(ends, dtype=np.intp),
                [(e, local[il[e]], local[jl[e]], invsum[e], coef[e], cl[e],
                  invdi[e], invdj[e]) for e in active],
                incident, self.graph.edge_index[incident], at_ends, [])
            self._plan_key = active
        plan = self._plan
        if held and not plan.fold:
            deg, il, jl = self._degl, self._il, self._jl
            plan.fold.extend((t[0], t[1], t[2], deg[il[t[0]]], deg[jl[t[0]]])
                             for t in plan.sweep)
        return plan

    def _rounding_floor(self, vl: list, plan: _SweepPlan):
        """(floor, s, stop) of a sweep loop at the magnitude M of its field.

        M is the largest term of a gap vl[j] - vl[i] + m * invsum, and
        floor = ROUNDING * M.  The loop goes on in units of s, a power of
        two near 1/M: the scaling is exact, so the sweeps are the unscaled
        ones, and the squares of a huge field cannot overflow.  In those
        units it stops at a change of stop, the larger of tol^2 and the
        change that rounding alone leaves, floor^2 times the sum of the
        edges' 1 / (1/d_i + 1/d_j).  A field that overflowed gets no floor.
        """
        mu = self.mu
        magnitude = max(max(map(abs, vl)),
                        max(abs(mu[t[0]]) * t[3] for t in plan.sweep))
        if not math.isfinite(magnitude):
            return 0.0, 1.0, self.tol * self.tol
        s = 2.0 ** -math.frexp(magnitude)[1]
        floor = ROUNDING * magnitude
        rounding_change = (floor * s) ** 2 * sum(t[4] for t in plan.sweep)
        return floor, s, max((self.tol * s) ** 2, rounding_change)

    def _sweep(self, vl: list, plan: _SweepPlan, sweeps: int,
               change: float) -> tuple[float, int, float]:
        """Cyclic sweeps over plan's active list until one changes the
        iterate by at most tol; returns (floor, sweeps, change).

        vl leads with the values at plan.ends; it and the multipliers are
        updated in place.  sweeps and change carry the projection's sweep
        count and its last sweep's change, for the error message.  After
        FLOOR_AFTER sweeps the loop goes on at the rounding floor of its
        field (floor > 0), in the units _rounding_floor picks.
        """
        mu = self.mu
        ends = len(plan.ends)
        sweep = plan.sweep
        floor, s, stop = 0.0, 1.0, self.tol * self.tol
        first = sweeps
        while True:
            if sweeps >= MAX_SWEEPS:
                raise ProjectionError(
                    f"projection did not converge within {MAX_SWEEPS} sweeps "
                    f"(residual change {np.sqrt(change) / s:.3e})")
            sweeps += 1
            change = 0.0
            for e, i, j, invsum, coef, c, invdi, invdj in sweep:
                m = mu[e]
                gap = vl[j] - vl[i] + m * invsum
                if gap > c:
                    m_new = (gap - c) * coef
                elif gap < -c:
                    m_new = (gap + c) * coef
                else:
                    m_new = 0.0
                dmu = m_new - m
                if dmu != 0.0:
                    vl[i] += dmu * invdi
                    vl[j] -= dmu * invdj
                    change += dmu * dmu * invsum
                    mu[e] = m_new
            if change <= stop:
                break
            if sweeps - first == FLOOR_AFTER:
                floor, s, stop = self._rounding_floor(vl[:ends], plan)
                # go on in units of s: the bounds, field and multipliers
                sweep = [t[:5] + (t[5] * s,) + t[6:] for t in sweep]
                vl[:ends] = [x * s for x in vl[:ends]]
                for t in sweep:
                    mu[t[0]] *= s
        if s != 1.0:
            vl[:ends] = [x / s for x in vl[:ends]]
            for t in sweep:
                mu[t[0]] /= s
        return floor, sweeps, change

    def hold(self, start: np.ndarray, times: np.ndarray, f, guard,
             guard_limit: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(k, rows, moved, live): project() on k steps whose input is
        x + h * d, x the last result, while the active list holds.  The
        drive d is the source field f or, where f is None, the collapse
        drive x / t.

        times are the step times from t_0, and start the last result, at
        t_0.  rows[r] is the result after r steps (rows[0] is start) and
        moved[r - 1] its |gaps| on the edges live, those at a vertex a step
        may move: the neighbourhood (the ends of the edges on the active
        list, the support as project() starts from it, and the other ends
        of the edges at them), and a vertex the drive moves: under f one
        where f is nonzero or start has its sign bit (-0.0 + h * 0.0 is
        +0.0), under x / t a nonzero one.  Every other vertex keeps its
        value, and every other edge its gap at start, which must be within
        its limit.

        With no multiplier held (free flight) there are no ends: the
        moving columns are one np.cumsum, adding in the order x + h * f
        would, certified in bulk (every live edge within its limit, which
        refuses a value that is not finite, and the guard within
        guard_limit).  Otherwise each step, up to the first refused row
        and no further, does project()'s own arithmetic in Python floats
        on the ends and the other vertices the drive moves: the drive, the
        checks of the live edges with no end on the list and of the guard
        off the ends, the fold, the checks of the edges at the ends after
        the fold and after the sweep, _sweep, and the guard at the ends.
        A check that no step can change is made once.  The k rows held are
        the results: the multipliers, the active list and abs_gaps are
        left as k project() calls leave them.
        """
        g, mu = self.graph, self.mu
        support = [e for e in self._active if mu[e] != 0.0]
        plan = self._sweep_plan(support, held=True)
        drives = start != 0 if f is None else (f != 0) | np.signbit(start)
        moving = drives.copy()
        moving[plan.incident_ends] = True
        at_live = moving[g.edge_index].any(axis=1)
        live = np.flatnonzero(at_live)
        vi, vj = g.edge_index[live].T
        limit = self._limit[live]
        # every other edge keeps its gap at start, which an initial datum
        # (stable to 1e-8) may hold past the limit
        a = np.abs(edge_gaps(g, start)) if self.abs_gaps is None \
            else self.abs_gaps.copy()
        stop = (a[~at_live] > self._limit[~at_live]).any()
        if not support and f is not None:
            cols = np.flatnonzero(moving)
            rows = np.repeat(start[None], len(times), axis=0)
            with np.errstate(over="ignore", invalid="ignore"):  # refused rows
                rows[:, cols] = np.cumsum(np.vstack(
                    [start[cols], np.diff(times)[:, None] * f[cols]]), axis=0)
                moved = np.abs(rows[1:, vj] - rows[1:, vi])
                fits = (moved <= limit).all(axis=1) \
                    & (np.abs(rows[1:, guard]) <= guard_limit).all(axis=1)
            k = 0 if stop else len(fits) if fits.all() else int(fits.argmin())
        else:
            # a row lists the ends, then the other vertices the drive
            # moves (cols), then the other ends of the live edges (fixed)
            size = len(plan.ends)
            drives[plan.ends] = False
            cols = np.concatenate([plan.ends, np.flatnonzero(drives)])
            width = len(cols)
            fixed = np.zeros(g.n_vertices, dtype=bool)
            fixed[vi] = fixed[vj] = True
            fixed[cols] = False
            fixed = np.flatnonzero(fixed)
            local = np.full(g.n_vertices, g.n_vertices)
            local[np.concatenate([cols, fixed])] = np.arange(width + len(fixed))
            li, lj = local[vi], local[vj]
            at = plan.at_ends[live]
            on = np.zeros(g.n_edges, dtype=bool)
            on[support] = True
            on = on[live]
            still = ~at & (li >= width) & (lj >= width)
            spot = local[guard]
            stop |= not (np.abs(start[vj[still]] - start[vi[still]])
                         <= limit[still]).all()
            stop |= not (np.abs(start[guard])[spot >= width] <= guard_limit).all()

            def table(mask, *more):
                return list(zip(li[mask].tolist(), lj[mask].tolist(),
                                limit[mask].tolist(), *more))

            rest, free = table(~at & ~still), table(at & ~on)
            bound = table(at & on, live[at & on].tolist())
            at_guard = spot[spot < size].tolist()
            off_guard = spot[(spot >= size) & (spot < width)].tolist()
            sweep, tol, fold, inf = self._sweep, self.tol, plan.fold, math.inf
            x, fixed = start[cols].tolist(), start[fixed].tolist()
            drive = None if f is None else f[cols].tolist()
            times = times.tolist()  # no numpy scalar arithmetic per step
            rows = np.empty((len(times), g.n_vertices))
            rows[0] = start
            k = 0
            # rows are kept 64 at a time: a list of Python floats costs
            # about four times the array cells it fills
            while not stop and k < len(times) - 1:
                batch = []
                try:
                    for t, t1 in zip(times[k:k + 64], times[k + 1:k + 65]):
                        h = t1 - t
                        xl = [v + h * (v / t) for v in x] if drive is None \
                            else [v + h * d for v, d in zip(x, drive)]
                        xl += fixed
                        snap = [mu[e] for e in support]
                        for i, j, lim in rest:
                            if not abs(xl[j] - xl[i]) <= lim:
                                raise _Refused
                        for q in off_guard:
                            if not abs(xl[q]) <= guard_limit:
                                raise _Refused
                        for e, i, _, di, _ in fold:
                            if mu[e] != 0.0:
                                xl[i] += mu[e] / di
                        for e, _, j, _, dj in fold:
                            if mu[e] != 0.0:
                                xl[j] += -mu[e] / dj
                        # project() keeps the list: after the fold every
                        # free edge is within its limit, every bound gap is
                        # finite and past its limit where its multiplier is
                        # 0; after the sweep the free edges are within their
                        # limits at its rounding floor, the bound gaps finite
                        for i, j, lim in free:
                            if not abs(xl[j] - xl[i]) <= lim:
                                raise _Refused
                        for i, j, lim, e in bound:
                            gap = abs(xl[j] - xl[i])
                            if not gap < inf or mu[e] == 0.0 and not gap > lim:
                                raise _Refused
                        floor = sweep(xl, plan, 0, inf)[0]
                        lift = floor - tol if floor > tol else 0.0
                        for i, j, lim in free:
                            if not abs(xl[j] - xl[i]) <= lim + lift:
                                raise _Refused
                        for i, j, _, _ in bound:
                            if not abs(xl[j] - xl[i]) < inf:
                                raise _Refused
                        for q in at_guard:
                            if not abs(xl[q]) <= guard_limit:
                                raise _Refused
                        x = xl[:width]
                        batch.append(x)
                except (_Refused, ProjectionError):  # the single step takes
                    # the refused row, and raises ProjectionError alike
                    for e, m in zip(support, snap):
                        mu[e] = m
                    stop = True
                if batch:
                    rows[k + 1:k + 1 + len(batch)] = start
                    rows[k + 1:k + 1 + len(batch), cols] = batch
                    k += len(batch)
            # held rows are finite at every live edge, so none can warn
            moved = np.abs(rows[1:k + 1, vj] - rows[1:k + 1, vi])
        if k:
            a[live] = moved[k - 1]
            self.abs_gaps, self._active = a, support
        return k, rows[:k + 1], moved[:k], live

    def project(self, z) -> np.ndarray:
        """Weighted projection of z onto the polytope.

        Returns argmin over the polytope of (1/2) sum_x d_x (v_x - z_x)^2.
        Stops when a full sweep moves the iterate by at most tol in the
        weighted norm and the result is stable at tol.  Where the field is
        so large that rounding at its magnitude M exceeds tol, both tests
        use ROUNDING * M in place of tol (from sweep FLOOR_AFTER on), so a
        huge field converges as far as its floats allow instead of
        sweeping MAX_SWEEPS times.
        """
        v = field_values(self.graph, z).copy()
        mu = self.mu
        il, jl, deg = self._il, self._jl, self._degl
        # fold the nonzero multipliers into v in edge order, all i-ends
        # first: the additions of a scatter over every edge less its +0.0s
        support = [e for e in self._active if mu[e] != 0.0]
        for e in support:
            v[il[e]] += mu[e] / deg[il[e]]
        for e in support:
            v[jl[e]] += -mu[e] / deg[jl[e]]

        a = np.abs(edge_gaps(self.graph, v))
        over = (a > self._limit).nonzero()[0]
        active = self._active = sorted(set(support).union(over.tolist())) \
            if len(over) else support
        if not active:
            # tolerance-inclusive membership: binding input is returned as is
            self.abs_gaps = a
            return v

        sweeps = 0
        change = np.inf
        while True:
            plan = self._sweep_plan(active)
            # the sweep reads and writes only the ends of the active edges
            vl = v[plan.ends].tolist()
            floor, sweeps, change = self._sweep(vl, plan, sweeps, change)
            v[plan.ends] = vl
            # every edge over its limit before the sweep is on the active
            # list, so only edges at a moved end can have been pushed past
            # theirs; fold those in and sweep again until globally stable
            pair = v[plan.incident_ends]
            moved = np.abs(pair[:, 1] - pair[:, 0])
            a[plan.incident] = moved
            limit = self._limit[plan.incident]
            if floor > self.tol:
                limit = limit + (floor - self.tol)
            over = plan.incident[moved > limit]
            if not len(over):
                break
            grown = sorted(set(active).union(over.tolist()))
            if len(grown) == len(active):
                break
            active = self._active = grown
        self.abs_gaps = a
        return v


def project(g: WeightedGraph, K: ConstraintSet, z) -> np.ndarray:
    """Cold-start Dykstra projection of z onto the constraint polytope."""
    return DykstraProjector(g, K).project(z)


def resolvent_p(g: WeightedGraph, p: float, K: ConstraintSet, lam: float, z,
                tol: float = 1e-10, start=None) -> np.ndarray:
    """Resolvent of the p-energy of K: minimize
    (1/2)||v - z||_nu^2 + lam * J_p(v), J_p(v) = sum w c^2 |grad v / c|^p / p.

    p must be finite and >= 2, lam finite and >= 0.  Damped Newton with
    Armijo backtracking from start (z when None); stops once the gradient
    in the nu-weighted norm is below tol.  The energy is strictly convex,
    so the minimiser does not depend on start, only the number of Newton
    steps does.  The Newton step solves the Hessian system, which has the
    graph's sparsity pattern, with a sparse LDL^T factorization
    (:mod:`graphsand.ldl`).  lam == 0 returns a copy of z.
    """
    _check_p(p)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    D, w, bounds = g.degrees, g.weights, _bounds_on(g, K)
    zv = field_values(g, z)
    if lam == 0.0:
        return zv.copy()

    ends = g.edge_index.ravel()
    plan = elimination_plan(g)
    inv_D = 1.0 / D

    def evaluate(v):
        # one edge power per point: the gradient and Hessian reuse flux, c;
        # an overflow is an inf in phi, which the line search refuses
        gaps = edge_gaps(g, v)
        with np.errstate(over="ignore"):
            c = conductance(gaps, p, w, bounds)
            flux = c * gaps
            phi = 0.5 * float(np.dot(D, (v - zv) ** 2)) \
                + lam * float((flux * gaps).sum()) / p
        return phi, flux, c

    v = (zv if start is None else field_values(g, start)).copy()
    scale = max(1.0, math.sqrt(np.dot(D, zv * zv)))
    phi0, flux, c = evaluate(v)
    flat = None  # (gn, v) where phi stopped resolving the decrease
    for _ in range(NEWTON_STEPS):
        gr = D * (v - zv) - lam * scatter(g, flux)
        big = float(np.abs(gr).max())
        if not math.isfinite(big):
            raise ResolventError(f"nonfinite gradient at p={p}, lam={lam}")
        # gradient in L^2(nu) is D^{-1} gr; far from the minimiser gr * gr
        # overflows exactly where big * big does, and the norm is then inf,
        # which only means "not converged"
        gn = math.sqrt(np.dot(gr * gr, inv_D)) if big * big < math.inf \
            else math.inf
        if gn <= tol * scale:
            return v
        if flat is not None and gn >= flat[0]:
            return flat[1]  # the gradient has stopped shrinking as well
        # Hessian diag(D) + B' diag(coeff) B, kept in the graph's sparsity
        coeff = lam * (p - 1.0) * c
        diag = D + np.bincount(ends, weights=coeff.repeat(2))
        diag += 1e-12 * (1.0 + diag.max())
        step = plan.solve(diag, -coeff, -gr)
        if not np.isfinite(step).all():
            raise ResolventError(f"nonfinite Newton step at p={p}, lam={lam}")
        slope = float(np.dot(gr, step))
        if slope >= 0:  # numerical loss of descent; fall back to -gradient
            step = -gr / big
            slope = float(np.dot(gr, step))
        t = 1.0
        accepted = None
        for _ in range(70):
            cand = v + t * step
            if (cand == v).all():
                break  # step underflowed: nothing representable is left to try
            phi, cand_flux, cand_c = evaluate(cand)
            if math.isfinite(phi) and phi <= phi0 + 1e-4 * t * slope:
                accepted = cand
                break
            t *= 0.5
        made_progress = (accepted is not None
                         and phi < phi0 - 1e-15 * max(1.0, abs(phi0)))
        if not made_progress:
            # phi is flat at floating-point accuracy, so Armijo cannot rank
            # the step; near the minimiser the gradient still can: take the
            # full step and go on while the gradient shrinks (its rounding
            # floor can sit above an absolute tolerance)
            if gn > 1e-6 * scale:
                raise ResolventError(
                    f"line search stalled at p={p}, lam={lam}: phi0={phi0:.6e}, "
                    f"|grad|_nu={gn:.3e}, last step {t:.1e}")
            flat = (gn, v)
            accepted = v + step
            phi, cand_flux, cand_c = evaluate(accepted)
            if not math.isfinite(phi):
                return v
        v, phi0, flux, c = accepted, phi, cand_flux, cand_c
    raise ResolventError(f"Newton did not converge in {NEWTON_STEPS} iterations "
                         f"(p={p}, lam={lam})")
