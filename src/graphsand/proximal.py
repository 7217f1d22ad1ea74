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

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .calculus import conductance, edge_gaps, model_weight_factor, scatter
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
    "project_oracle",
    "resolvent_p",
]


class ConstraintKind(NamedTuple):
    token: str           # spelling in scenario files and on the command line
    bounds: Callable[[WeightedGraph], np.ndarray]  # slope bounds from weights
    model: str | None    # p-energy model whose p -> infinity limit this is


# the named stable sets; "custom" (a user table of bounds) is the only other
CONSTRAINT_KINDS = {
    "uniform": ConstraintKind("uniform", lambda g: np.ones(g.n_edges), "G"),
    "inverse_sqrt_weight": ConstraintKind(
        "inv-sqrt-w", lambda g: 1.0 / np.sqrt(g.weights), "w"),
    "inverse_weight": ConstraintKind("inv-w", lambda g: 1.0 / g.weights, None),
}


class ProjectionError(RuntimeError):
    """Dykstra failed to reach the requested tolerance."""


class ResolventError(RuntimeError):
    """Newton iteration for the p-energy resolvent failed."""


@dataclass(frozen=True)
class ConstraintSet:
    """Per-edge slope bounds c_xy > 0 encoding a stable-configuration set.

    kind is a key of CONSTRAINT_KINDS ("uniform" bounds every slope by 1,
    "inverse_sqrt_weight" by 1/sqrt(w_xy), "inverse_weight" by 1/w_xy) or
    "custom", a user table.
    """

    graph: WeightedGraph
    kind: str
    bounds: np.ndarray

    def __post_init__(self):
        if self.kind != "custom" and self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (self.graph.n_edges,):
            raise ValueError(f"expected {self.graph.n_edges} bounds, got {b.shape}")
        if np.any(b <= 0) or not np.all(np.isfinite(b)):
            raise ValueError("slope bounds must be strictly positive")
        object.__setattr__(self, "bounds", b)

    @classmethod
    def uniform(cls, g: WeightedGraph) -> "ConstraintSet":
        return cls.from_kind(g, "uniform")

    @classmethod
    def inverse_sqrt_weight(cls, g: WeightedGraph) -> "ConstraintSet":
        return cls.from_kind(g, "inverse_sqrt_weight")

    @classmethod
    def inverse_weight(cls, g: WeightedGraph) -> "ConstraintSet":
        return cls.from_kind(g, "inverse_weight")

    @classmethod
    def custom(cls, g: WeightedGraph, bounds) -> "ConstraintSet":
        return cls(g, "custom", bounds)

    @classmethod
    def from_kind(cls, g: WeightedGraph, kind: str) -> "ConstraintSet":
        """Named constraint set; kind is a CONSTRAINT_KINDS key or token."""
        for name, spec in CONSTRAINT_KINDS.items():
            if kind in (name, spec.token):
                return cls(g, name, spec.bounds(g))
        raise ValueError(f"unknown constraint kind {kind!r}")

    def model(self) -> str:
        """p-energy model whose limit this constraint set is."""
        spec = CONSTRAINT_KINDS.get(self.kind)
        if spec is None or spec.model is None:
            raise ValueError(
                f"no p-energy model matches constraint kind {self.kind!r}")
        return spec.model


def is_stable(u, K: ConstraintSet, tol: float = 1e-9) -> bool:
    """True iff |u(y) - u(x)| <= c_xy + tol on every edge."""
    vals = field_values(K.graph, u)
    return bool(np.all(np.abs(edge_gaps(K.graph, vals)) <= K.bounds + tol))


def max_relative_slope(u, K: ConstraintSet) -> float:
    """max over edges of |u(y) - u(x)| / c_xy: the L of the collapse setup."""
    vals = field_values(K.graph, u)
    return float(np.max(np.abs(edge_gaps(K.graph, vals)) / K.bounds))


class _SweepPlan(NamedTuple):
    """What a sweep over one active list touches."""
    ends: np.ndarray      # vertex ids of the active edges' ends, sorted
    sweep: list           # per active edge: (edge, local i, local j,
                          # 1/d_i + 1/d_j, its inverse, bound, 1/d_i, 1/d_j)
    incident: np.ndarray  # edges with an end among `ends`, sorted
    incident_ends: np.ndarray  # their (i, j) vertex ids


class DykstraProjector:
    """Cyclic Dykstra projection onto a slope polytope, with reusable state.

    A fresh instance performs the standard cold-start iteration.  Solvers
    keep one instance per run and pass warm=True so the multipliers carry
    over between consecutive, nearly identical projections.  The active
    list is carried too; it holds every edge with mu != 0, since mu is only
    written in the sweep over it.  abs_gaps holds |gaps| of the last result.
    """

    def __init__(self, g: WeightedGraph, K: ConstraintSet):
        if K.graph is not g:
            raise ValueError("constraint set belongs to a different graph")
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
        self._cl = K.bounds.tolist()
        self._tol = self._limit = None
        self._plan_key = self._plan = None
        self.abs_gaps = None
        self.reset()

    def reset(self):
        self.mu = [0.0] * self.graph.n_edges
        self._active = []

    def _sweep_plan(self, active: list) -> _SweepPlan:
        """The plan of an active list, kept until the list changes; the
        list is rebuilt on every call, so it is compared by value."""
        if active != self._plan_key:
            il, jl = self._il, self._jl
            invsum, coef, cl = self._invsuml, self._coefl, self._cl
            invdi, invdj = self._invdil, self._invdjl
            ends = sorted({x for e in active for x in (il[e], jl[e])})
            local = {x: k for k, x in enumerate(ends)}
            at_end = np.zeros(self.graph.n_vertices, dtype=bool)
            at_end[ends] = True
            incident = at_end[self.graph.edge_index].any(axis=1).nonzero()[0]
            self._plan = _SweepPlan(
                np.array(ends, dtype=np.intp),
                [(e, local[il[e]], local[jl[e]], invsum[e], coef[e], cl[e],
                  invdi[e], invdj[e]) for e in active],
                incident, self.graph.edge_index[incident])
            self._plan_key = active
        return self._plan

    def project(self, z, tol: float = 1e-10, max_iter: int = 100_000,
                warm: bool = False) -> np.ndarray:
        """Weighted projection of z onto the polytope.

        Returns argmin over the polytope of (1/2) sum_x d_x (v_x - z_x)^2.
        Stops when a full sweep moves the iterate by at most tol in the
        weighted norm and the result is stable at tol.
        """
        v = field_values(self.graph, z).copy()
        if not warm:
            self.reset()
        mu = self.mu
        il, jl, deg = self._il, self._jl, self._degl
        # fold the nonzero multipliers into v in edge order, all i-ends
        # first: the additions of a scatter over every edge less its +0.0s
        support = [e for e in self._active if mu[e] != 0.0]
        for e in support:
            v[il[e]] += mu[e] / deg[il[e]]
        for e in support:
            v[jl[e]] += -mu[e] / deg[jl[e]]

        if tol != self._tol:
            self._tol, self._limit = tol, self.K.bounds + tol
        a = np.abs(edge_gaps(self.graph, v))
        over = (a > self._limit).nonzero()[0]
        active = self._active = sorted(set(support).union(over.tolist())) \
            if len(over) else support
        if not active:
            # tolerance-inclusive membership: binding input is returned as is
            self.abs_gaps = a
            return v

        tol_sq = tol * tol
        sweeps = 0
        change = np.inf
        while True:
            plan = self._sweep_plan(active)
            # the sweep reads and writes only the ends of the active edges
            vl = v[plan.ends].tolist()
            while True:
                if sweeps >= max_iter:
                    raise ProjectionError(
                        f"projection did not converge within {max_iter} sweeps "
                        f"(residual change {np.sqrt(change):.3e})")
                sweeps += 1
                change = 0.0
                for e, i, j, invsum, coef, c, invdi, invdj in plan.sweep:
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
                if change <= tol_sq:
                    break
            v[plan.ends] = vl
            # every edge over its limit before the sweep is on the active
            # list, so only edges at a moved end can have been pushed past
            # theirs; fold those in and sweep again until globally stable
            pair = v[plan.incident_ends]
            moved = np.abs(pair[:, 1] - pair[:, 0])
            a[plan.incident] = moved
            over = plan.incident[moved > self._limit[plan.incident]]
            if not len(over):
                break
            grown = sorted(set(active).union(over.tolist()))
            if len(grown) == len(active):
                break
            active = self._active = grown
        self.abs_gaps = a
        return v


def project(g: WeightedGraph, K: ConstraintSet, z, tol: float = 1e-10,
            max_iter: int = 100_000) -> np.ndarray:
    """Cold-start Dykstra projection of z onto the constraint polytope."""
    return DykstraProjector(g, K).project(z, tol=tol, max_iter=max_iter)


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


def resolvent_p(g: WeightedGraph, p: float, model: str, lam: float, z,
                tol: float = 1e-10, max_iter: int = 500) -> np.ndarray:
    """Resolvent of the p-energy: minimize (1/2)||v - z||_nu^2 + lam * J_p(v).

    Damped Newton with Armijo backtracking; stops once the gradient in the
    nu-weighted norm is below tol.  The Newton step solves the Hessian
    system, which has the graph's sparsity pattern, with a sparse LDL^T
    factorization (:mod:`graphsand.ldl`).  lam == 0 returns z itself.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    zv = field_values(g, z)
    if lam == 0.0:
        return zv.copy()

    ends = g.edge_index.ravel()
    D = g.degrees
    wf = model_weight_factor(g, p, model)
    plan = elimination_plan(g)

    def evaluate(v):
        # one edge power per point: the gradient and Hessian reuse flux, c
        gaps = edge_gaps(g, v)
        c = conductance(gaps, p, wf)
        with np.errstate(over="ignore"):
            flux = c * gaps
            phi = 0.5 * float(np.dot(D, (v - zv) ** 2)) \
                + lam * float(np.sum(flux * gaps)) / p
        return phi, flux, c

    v = zv.copy()
    scale = max(1.0, float(np.sqrt(np.dot(D, zv * zv))))
    phi0, flux, c = evaluate(v)
    for _ in range(max_iter):
        gr = D * (v - zv) - lam * scatter(g, flux)
        if not np.all(np.isfinite(gr)):
            raise ResolventError(f"nonfinite gradient at p={p}, lam={lam}")
        # gradient in L^2(nu) is D^{-1} gr
        gn = float(np.sqrt(np.dot(gr * gr, 1.0 / D)))
        if gn <= tol * scale:
            return v
        # Hessian diag(D) + B' diag(coeff) B, kept in the graph's sparsity
        coeff = lam * (p - 1.0) * c
        diag = D + np.bincount(ends, weights=coeff.repeat(2))
        diag += 1e-12 * (1.0 + np.max(diag))
        step = plan.solve(diag, -coeff, -gr)
        if not np.all(np.isfinite(step)):
            raise ResolventError(f"nonfinite Newton step at p={p}, lam={lam}")
        slope = float(np.dot(gr, step))
        if slope >= 0:  # numerical loss of descent; fall back to -gradient
            step = -gr / np.max(np.abs(gr))
            slope = float(np.dot(gr, step))
        t = 1.0
        accepted = None
        for _ in range(70):
            cand = v + t * step
            if np.array_equal(cand, v):
                break  # step underflowed: nothing representable is left to try
            phi, cand_flux, cand_c = evaluate(cand)
            if np.isfinite(phi) and phi <= phi0 + 1e-4 * t * slope:
                accepted = cand
                break
            t *= 0.5
        made_progress = (accepted is not None
                         and phi < phi0 - 1e-15 * max(1.0, abs(phi0)))
        if not made_progress:
            # stationary at floating-point accuracy: the rounding floor of
            # the gradient can sit above an absolute tolerance
            if gn <= 1e-6 * scale:
                return accepted if accepted is not None else v
            raise ResolventError(
                f"line search stalled at p={p}, lam={lam}: phi0={phi0:.6e}, "
                f"|grad|_nu={gn:.3e}, last step {t:.1e}")
        v, phi0, flux, c = accepted, phi, cand_flux, cand_c
    raise ResolventError(f"Newton did not converge in {max_iter} iterations "
                         f"(p={p}, lam={lam})")
