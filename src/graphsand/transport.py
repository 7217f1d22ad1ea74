"""Monge-Kantorovich verification layer.

Certifies growth-model states as optimal dual potentials: Lipschitz
feasibility, the dual pairing, an exact small-instance transport-cost oracle
(successive shortest augmenting paths on rationally scaled masses), and the
dual criteria joining a potential with an explicit transport map.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .graph import WeightedGraph, distance_balls, distance_rows, field_values

__all__ = [
    "TransportInstance",
    "is_lipschitz_wrt",
    "kantorovich_pairing",
    "ot_cost_oracle",
    "verify_potential",
    "verify_dual_criteria",
]

_SUPPORT_LIMIT = 50
_DENOMINATOR_BOUND = 10 ** 9


def _metric_lengths(dist):
    """The edge lengths of a metric: None (hops) for "graph", else `dist`."""
    return None if isinstance(dist, str) and dist == "graph" else dist


def _check_tol(tol):
    """Refuse a tol that is not a finite number >= 0: a NaN or infinite
    slack would let every comparison pass, a negative one is no slack."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol: must be a finite number >= 0, got {tol!r}")


@dataclass(frozen=True)
class TransportInstance:
    """Two nonnegative densities of equal nu-mass plus a metric choice.

    `distance` is "graph" for the hop metric, or an array of per-edge lengths
    for the weighted metric.  The densities and lengths are kept as
    read-only copies of the caller's arrays, so the exact transport cost,
    solved on first use and kept with the instance, cannot go stale.
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
        scale = max(abs(m0), abs(m1), 1.0)
        if abs(m0 - m1) > 1e-9 * scale:
            raise ValueError(f"densities must have equal mass ({m0} vs {m1})")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)
        if _metric_lengths(self.distance) is not None:
            lengths = np.array(self.distance, dtype=float)
            lengths.flags.writeable = False
            object.__setattr__(self, "distance", lengths)

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
    for a, ball, d in distance_balls(g, _metric_lengths(dist),
                                     range(g.n_vertices - 1), reaches):
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


def _rational_masses(masses: np.ndarray) -> tuple[list[int], int]:
    """Scale nonnegative masses to integers with a bounded denominator.

    Masses are taken as exact rationals with denominator at most 1e9; if the
    common denominator would overflow that bound the masses are floored at
    scale 1e9 / total and the sub-1e-9 residual is dropped.
    """
    fracs = [Fraction(float(m)).limit_denominator(_DENOMINATOR_BOUND)
             for m in masses]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
        if denom > _DENOMINATOR_BOUND:
            break
    if denom <= _DENOMINATOR_BOUND:
        exact = all(abs(float(f) - float(m)) <= 1e-15 * max(1.0, float(m))
                    for f, m in zip(fracs, masses))
        if exact:
            return [int(f * denom) for f in fracs], denom
    total = float(np.sum(masses))
    scale = max(1, int(_DENOMINATOR_BOUND / max(total, 1.0)))
    return [int(round(float(m) * scale)) for m in masses], scale


def _min_cost_flow(supply: list[int], demand: list[int],
                   cost: np.ndarray) -> float:
    """Transportation problem by successive shortest augmenting paths.

    Integer supplies/demands with equal totals; forward arcs are uncapacitated
    so each augmentation exhausts a source or a sink.  Node potentials keep
    reduced costs nonnegative for Dijkstra.
    """
    ns, nd = len(supply), len(demand)
    rem_s = list(supply)
    rem_d = list(demand)
    flow = np.zeros((ns, nd), dtype=object)
    pot_s = [0.0] * ns
    pot_d = [0.0] * nd
    total_cost = Fraction(0)

    while True:
        sources = [i for i in range(ns) if rem_s[i] > 0]
        if not sources:
            break
        # Dijkstra over the bipartite residual graph
        dist_s = [math.inf] * ns
        dist_d = [math.inf] * nd
        prev_d = [-1] * nd
        prev_s = [-1] * ns
        heap = []
        for i in sources:
            dist_s[i] = 0.0
            heap.append((0.0, 0, i))
        heapq.heapify(heap)
        done_s = [False] * ns
        done_d = [False] * nd
        while heap:
            d, side, k = heapq.heappop(heap)
            if side == 0:
                if done_s[k]:
                    continue
                done_s[k] = True
                for jj in range(nd):
                    rc = cost[k, jj] + pot_s[k] - pot_d[jj]
                    nd_dist = d + rc
                    if nd_dist < dist_d[jj] - 1e-15:
                        dist_d[jj] = nd_dist
                        prev_d[jj] = k
                        heapq.heappush(heap, (nd_dist, 1, jj))
            else:
                if done_d[k]:
                    continue
                done_d[k] = True
                for ii in range(ns):
                    if flow[ii, k] > 0:
                        rc = -cost[ii, k] - pot_s[ii] + pot_d[k]
                        nd_dist = d + rc
                        if nd_dist < dist_s[ii] - 1e-15:
                            dist_s[ii] = nd_dist
                            prev_s[ii] = k
                            heapq.heappush(heap, (nd_dist, 0, ii))
        target = min((j for j in range(nd) if rem_d[j] > 0),
                     key=lambda j: dist_d[j], default=None)
        if target is None or not math.isfinite(dist_d[target]):
            raise RuntimeError("min-cost flow: no augmenting path")  # pragma: no cover
        # trace the path back and find the bottleneck
        path = []  # (i, j, forward)
        j = target
        bottleneck = rem_d[j]
        while True:
            i = prev_d[j]
            path.append((i, j, True))
            if dist_s[i] == 0.0 and rem_s[i] > 0 and prev_s[i] == -1:
                bottleneck = min(bottleneck, rem_s[i])
                break
            j2 = prev_s[i]
            bottleneck = min(bottleneck, flow[i, j2])
            path.append((i, j2, False))
            j = j2
        for i, jj, forward in path:
            if forward:
                flow[i, jj] += bottleneck
            else:
                flow[i, jj] -= bottleneck
        rem_s[path[-1][0]] -= bottleneck
        rem_d[target] -= bottleneck
        for k in range(ns):
            if math.isfinite(dist_s[k]):
                pot_s[k] += dist_s[k]
        for k in range(nd):
            if math.isfinite(dist_d[k]):
                pot_d[k] += dist_d[k]

    for i in range(ns):
        for j in range(nd):
            if flow[i, j]:
                total_cost += Fraction(flow[i, j]) * Fraction(float(cost[i, j]))
    return float(total_cost)


def ot_cost_oracle(instance: TransportInstance) -> float:
    """Exact optimal transport cost between f0 d_nu and f1 d_nu.

    Supports of at most 50 vertices each; masses are rationally scaled to
    integers so the augmenting-path solver terminates exactly.  The cost is
    solved once per instance; later calls return the memoized value.
    """
    return instance._cost


def _solve_cost(instance: TransportInstance) -> float:
    g = instance.graph
    deg = g.degrees
    supp0 = [k for k in range(g.n_vertices) if instance.f0[k] > 0]
    supp1 = [k for k in range(g.n_vertices) if instance.f1[k] > 0]
    if len(supp0) > _SUPPORT_LIMIT or len(supp1) > _SUPPORT_LIMIT:
        raise ValueError("transport oracle supports at most "
                         f"{_SUPPORT_LIMIT} support vertices")
    if not supp0:
        return 0.0
    masses = np.array([instance.f0[k] * deg[k] for k in supp0]
                      + [instance.f1[k] * deg[k] for k in supp1])
    ints, _scale = _rational_masses(masses)
    supply = ints[:len(supp0)]
    demand = ints[len(supp0):]
    gap = sum(supply) - sum(demand)
    if gap:  # repair rounding drift on the heaviest entry
        demand[int(np.argmax(demand))] += gap
    rows = distance_rows(g, _metric_lengths(instance.distance), supp0)
    cost = np.array([row[supp1] for _, row in rows])
    scaled = _min_cost_flow(supply, demand, cost)
    return scaled / _scale


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
    for k, row in distance_rows(g, _metric_lengths(dist), np.flatnonzero(f0v > 0)):
        x = g.vertices[k]
        tk = g.vertex_id(T_map[x]) if x in T_map else k
        diffs.append((float(uu[k] - uu[tk]), float(row[tk])))
    for sign in (1.0, -1.0):
        if all(abs(sign * du - dd) <= tol for du, dd in diffs):
            return True
    return False
