"""Monge-Kantorovich verification layer.

Certifies growth-model states as optimal dual potentials: Lipschitz
feasibility, the dual pairing, an exact small-instance transport-cost oracle
(successive shortest augmenting paths on the exact integer numerators of the
dyadic masses and distances), and the dual criteria joining a potential with
an explicit transport map.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .graph import WeightedGraph, _metric, distance_balls, distance_rows, \
    field_values

__all__ = [
    "TransportInstance",
    "is_lipschitz_wrt",
    "kantorovich_pairing",
    "ot_cost_oracle",
    "verify_potential",
    "verify_dual_criteria",
]

_SUPPORT_LIMIT = 50


def _check_tol(tol):
    """Refuse a tol that is not a finite number >= 0: a NaN or infinite
    slack would let every comparison pass, a negative one is no slack."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol: must be a finite number >= 0, got {tol!r}")


@dataclass(frozen=True, eq=False)
class TransportInstance:
    """Two nonnegative densities of equal nu-mass plus a metric choice.

    `distance` is "graph" for the hop metric, or an array of positive finite
    per-edge lengths for the weighted metric.  The densities and lengths are
    kept as read-only copies of the caller's arrays, so the exact transport
    cost, solved on first use and kept with the instance, cannot go stale.
    Instances compare and hash by identity.
    """

    graph: WeightedGraph
    f0: np.ndarray
    f1: np.ndarray
    distance: object = "graph"

    def __post_init__(self):
        f0 = field_values(self.graph, self.f0).copy()
        f1 = field_values(self.graph, self.f1).copy()
        f0.flags.writeable = f1.flags.writeable = False
        if np.any(f0 < 0) or np.any(f1 < 0):
            raise ValueError("densities must be nonnegative")
        deg = self.graph.degrees
        m0, m1 = float(np.dot(deg, f0)), float(np.dot(deg, f1))
        if abs(m0 - m1) > 1e-9 * max(abs(m0), abs(m1)):
            raise ValueError(f"densities must have equal mass ({m0} vs {m1})")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "distance", _metric(self.graph, self.distance))

    @cached_property
    def _cost(self) -> float:
        return _solve_cost(self)


def is_lipschitz_wrt(g: WeightedGraph, dist, u, tol: float = 1e-9) -> bool:
    """True iff |u(x) - u(y)| <= dist(x, y) + tol for every vertex pair.

    The check is the pairwise one: an edgewise bound would let the slack tol
    add up along a path.  Each pair (a, b), b > a, is checked on the search
    from a, and can only fail within the spread of u over those b, so that
    search stops at max(max u(b) - u(a), u(a) - min u(b)): the cost of
    those ball searches rather than of n whole-graph searches, with the
    decisions of a full scan (d + tol >= d for tol >= 0).  Stops at the
    first violating pair.
    """
    _check_tol(tol)
    vals = field_values(g, u).tolist()
    reaches = [0.0] * (len(vals) - 1)
    top = bottom = vals[-1]  # the extremes of u over the vertices after a
    for a in range(len(vals) - 2, -1, -1):
        x = vals[a]
        reaches[a] = max(top - x, x - bottom)
        top, bottom = max(top, x), min(bottom, x)
    for a, ball, d in distance_balls(g, dist, range(g.n_vertices - 1), reaches):
        ua = vals[a]
        for b in ball:
            if b > a and abs(ua - vals[b]) > d[b] + tol:
                return False
    return True


def kantorovich_pairing(g: WeightedGraph, u, f0, f1) -> float:
    """Dual objective sum_x u(x) (f1(x) - f0(x)) d_x."""
    uu = field_values(g, u)
    d0 = field_values(g, f0)
    d1 = field_values(g, f1)
    return float(np.dot(uu * g.degrees, d1 - d0))


def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Integers n_k and one power of two D with values[k] == n_k / D
    exactly: every float is a dyadic rational."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _min_cost_flow(supply: list[int], demand: list[int],
                   cost: list[list[int]]) -> int:
    """Transportation problem by successive shortest augmenting paths.

    Integer supplies/demands with equal totals and integer costs
    (cost[i][j] from supply i to demand j); forward arcs are uncapacitated
    so each augmentation exhausts a source, a sink or a backward flow.
    Node potentials keep reduced costs nonnegative for Dijkstra, which stops
    at the nearest unmet demand.  All arithmetic is on integers, so the
    returned total cost is exact.
    """
    ns, nd = len(supply), len(demand)
    rem_s, rem_d = list(supply), list(demand)
    flow = [[0] * nd for _ in range(ns)]
    pot_s, pot_d = [0] * ns, [0] * nd
    inf, pop, push = math.inf, heapq.heappop, heapq.heappush
    while True:
        roots = [i for i in range(ns) if rem_s[i] > 0]
        if not roots:
            break
        # Dijkstra over the bipartite residual graph; roots keep prev -1
        dist_s, dist_d = [inf] * ns, [inf] * nd
        prev_s, prev_d = [-1] * ns, [-1] * nd
        for i in roots:
            dist_s[i] = 0
        heap = [(0, 0, i) for i in roots]  # sorted, so a heap
        while heap:
            d, side, k = pop(heap)
            if d > (dist_d[k] if side else dist_s[k]):  # a stale entry
                continue
            if side == 0:
                base, row = d + pot_s[k], cost[k]
                for j in range(nd):
                    dj = base + row[j] - pot_d[j]
                    if dj < dist_d[j]:
                        dist_d[j], prev_d[j] = dj, k
                        push(heap, (dj, 1, j))
            elif rem_d[k] > 0:  # the nearest unmet demand
                break
            else:
                base = d + pot_d[k]
                for i in range(ns):
                    if flow[i][k]:
                        di = base - cost[i][k] - pot_s[i]
                        if di < dist_s[i]:
                            dist_s[i], prev_s[i] = di, k
                            push(heap, (di, 0, i))
        # the path back from sink k: forward arcs (i, j), backward arcs
        # (i, prev_s[i]) whose flow it cancels
        target, top = k, d
        forward, backward = [], []
        while True:
            i = prev_d[k]
            forward.append((i, k))
            k = prev_s[i]
            if k < 0:
                break
            backward.append((i, k))
        amount = min(rem_s[i], rem_d[target], *(flow[a][b] for a, b in backward))
        for a, b in forward:
            flow[a][b] += amount
        for a, b in backward:
            flow[a][b] -= amount
        rem_s[i] -= amount
        rem_d[target] -= amount
        # a node not settled before the sink is at least `top` away
        pot_s = [p + (d if d < top else top) for p, d in zip(pot_s, dist_s)]
        pot_d = [p + (d if d < top else top) for p, d in zip(pot_d, dist_d)]
    return sum(f * c for frow, crow in zip(flow, cost)
               for f, c in zip(frow, crow) if f)


def ot_cost_oracle(instance: TransportInstance) -> float:
    """Exact optimal transport cost between f0 d_nu and f1 d_nu.

    Supports of at most 50 vertices each.  The float masses f d and
    distances are dyadic rationals, solved on as exact integers over one
    power-of-two denominator each; the imbalance of the two float totals is
    settled on the heaviest entry of f1 d, and the cost is the exact minimum
    rounded once.  The cost is solved once per instance; later calls return
    the memoized value.
    """
    return instance._cost


def _solve_cost(instance: TransportInstance) -> float:
    g = instance.graph
    f0, f1 = instance.f0, instance.f1
    supp0 = np.flatnonzero(f0 > 0).tolist()
    supp1 = np.flatnonzero(f1 > 0).tolist()
    if len(supp0) > _SUPPORT_LIMIT or len(supp1) > _SUPPORT_LIMIT:
        raise ValueError("transport oracle supports at most "
                         f"{_SUPPORT_LIMIT} support vertices")
    if not supp0 or not supp1:
        return 0.0
    deg = g.degrees
    masses, mass_den = _dyadic((f0[supp0] * deg[supp0]).tolist()
                               + (f1[supp1] * deg[supp1]).tolist())
    supply, demand = masses[:len(supp0)], masses[len(supp0):]
    # settle the imbalance of the two float totals on the heaviest demand
    demand[demand.index(max(demand))] += sum(supply) - sum(demand)
    # the metric is symmetric: search from the smaller support, transpose
    near, far = (supp0, supp1) if len(supp0) <= len(supp1) else (supp1, supp0)
    rows = [[dist[k] for k in far] for _, _, dist in
            distance_balls(g, instance.distance, near)]
    if near is supp1:
        rows = list(zip(*rows))
    costs, cost_den = _dyadic([c for row in rows for c in row])
    nd = len(supp1)
    cost = [costs[k:k + nd] for k in range(0, len(costs), nd)]
    # int / int rounds the exact quotient once
    return _min_cost_flow(supply, demand, cost) / (mass_den * cost_den)


def verify_potential(instance: TransportInstance, u, tol: float = 1e-9) -> bool:
    """True iff u closes the duality gap: pairing >= exact cost - tol.

    Raises if u is not Lipschitz for the instance metric (weak duality then
    guarantees the pairing can never exceed the cost beyond tolerance).
    """
    _check_tol(tol)
    g = instance.graph
    if not is_lipschitz_wrt(g, instance.distance, u):
        raise ValueError("candidate potential is not Lipschitz for the metric")
    pairing = kantorovich_pairing(g, u, instance.f0, instance.f1)
    return pairing >= ot_cost_oracle(instance) - tol


def verify_dual_criteria(g: WeightedGraph, dist, u, T_map: Mapping, f0,
                         tol: float = 1e-9) -> bool:
    """Joint optimality certificate for a potential and a transport map.

    Requires u Lipschitz and a single sign s with
    s * (u(x) - u(T(x))) = dist(x, T(x)) on the support of f0: the potential
    drops by exactly the transport distance along the map (either u or -u is
    the maximizing potential, depending on the orientation of the pairing).
    """
    _check_tol(tol)
    if not is_lipschitz_wrt(g, dist, u):
        return False
    uu = field_values(g, u)
    f0v = field_values(g, f0)
    diffs = []
    for k, row in distance_rows(g, dist, np.flatnonzero(f0v > 0)):
        x = g.vertices[k]
        tk = g.vertex_id(T_map[x]) if x in T_map else k
        diffs.append((float(uu[k] - uu[tk]), float(row[tk])))
    for sign in (1.0, -1.0):
        if all(abs(sign * du - dd) <= tol for du, dd in diffs):
            return True
    return False
