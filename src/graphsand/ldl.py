"""Sparse LDL^T solve for symmetric systems with a graph's sparsity pattern.

The Newton step of the p-energy resolvent solves H x = b with
H = diag(d) + off-diagonal entries on the graph's edges only.  Dense
elimination would cost O(n^3) time and O(n^2) memory; here the elimination
order and the fill pattern are worked out once per graph (the symbolic
phase, pure Python), and each solve (the numeric phase) is a handful of
vectorised numpy operations per elimination round.

Ordering: in the spirit of Liu's multiple minimum degree (ACM TOMS 1985),
each round eliminates a greedy independent set of low-degree vertices of
the filled graph, so pivots of one round never touch each other and their
updates can be scattered together with np.bincount.  On a path this is
cyclic reduction: a path of 401 vertices takes 8 rounds.

H must be symmetric positive definite, for which LDL^T without pivoting is
backward stable.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph

__all__ = ["EliminationPlan", "elimination_plan"]


class _Round:
    """Index arrays of one elimination round.

    Triple t pairs pivot `piv[t]` with a not-yet-eliminated neighbour
    `nbr[t]` through factor slot `slot[t]`.  Fill update f adds the product
    of the triples at positions `fa[f]` and `fb[f]` (same pivot) into slot
    `ft[f]`.  Fill targets are compressed to their unique values `ft_u`
    and an inverse index `ft_inv`, so that bincount runs over the round's
    targets rather than over every factor slot.
    """

    __slots__ = ("slot", "piv", "nbr", "fa", "fb", "ft_u", "ft_inv")

    def __init__(self, slot, piv, nbr, fa, fb, ft):
        self.slot = np.asarray(slot, dtype=np.intp)
        self.piv = np.asarray(piv, dtype=np.intp)
        self.nbr = np.asarray(nbr, dtype=np.intp)
        self.fa = np.asarray(fa, dtype=np.intp)
        self.fb = np.asarray(fb, dtype=np.intp)
        self.ft_u, self.ft_inv = np.unique(np.asarray(ft, dtype=np.intp),
                                           return_inverse=True)


class EliminationPlan:
    """Elimination order and fill pattern of one graph (symbolic phase).

    Factor slots 0..E-1 are the graph's edges in `edge_index` order; fill
    slots follow.  Build it once per graph with :func:`elimination_plan`.
    """

    __slots__ = ("n_edges", "n_slots", "rounds")

    def __init__(self, g: WeightedGraph):
        n = g.n_vertices
        adj = [dict(p) for p in g.incidence]  # neighbour -> factor slot
        n_slots = g.n_edges
        alive = set(range(n))
        rounds = []
        while alive:
            degree = {v: len(adj[v]) for v in alive}
            cap = max(2, 2 * min(degree.values()))
            pivots = []
            blocked = set()
            for _, v in sorted((d, v) for v, d in degree.items() if d <= cap):
                if v not in blocked:
                    pivots.append(v)
                    blocked.add(v)
                    blocked.update(adj[v])
            slot, piv, nbr, fa, fb, ft = [], [], [], [], [], []
            for k in pivots:
                nb = sorted(adj[k].items())
                base = len(slot)
                for m, s in nb:
                    slot.append(s)
                    piv.append(k)
                    nbr.append(m)
                for a, (ma, _) in enumerate(nb):
                    row = adj[ma]
                    for b in range(a + 1, len(nb)):
                        mb = nb[b][0]
                        t = row.get(mb)
                        if t is None:
                            t = n_slots
                            n_slots += 1
                            row[mb] = t
                            adj[mb][ma] = t
                        fa.append(base + a)
                        fb.append(base + b)
                        ft.append(t)
                for m, _ in nb:
                    del adj[m][k]
                adj[k] = {}
            alive.difference_update(pivots)
            if slot:  # isolated pivots only need the diagonal solve
                rounds.append(_Round(slot, piv, nbr, fa, fb, ft))
        self.n_edges = g.n_edges
        self.n_slots = n_slots
        self.rounds = tuple(rounds)

    def solve(self, diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs, H = diag(diag) plus H[i, j] = H[j, i] = off[e]
        on each edge e = (i, j); H must be symmetric positive definite."""
        d = np.array(diag, dtype=float)
        x = np.array(rhs, dtype=float)
        n = len(d)
        L = np.zeros(self.n_slots)
        L[:self.n_edges] = off
        # factor, with the forward substitution L z = rhs folded in
        for r in self.rounds:
            h = L[r.slot]
            l = h / d[r.piv]
            d -= np.bincount(r.nbr, weights=l * h, minlength=n)
            x -= np.bincount(r.nbr, weights=l * x[r.piv], minlength=n)
            if len(r.fa):
                L[r.ft_u] -= np.bincount(r.ft_inv, weights=l[r.fa] * h[r.fb],
                                         minlength=len(r.ft_u))
            L[r.slot] = l
        x /= d
        # back substitution L^T x = z, latest pivots first
        for r in reversed(self.rounds):
            x -= np.bincount(r.piv, weights=L[r.slot] * x[r.nbr], minlength=n)
        return x


def elimination_plan(g: WeightedGraph) -> EliminationPlan:
    """The graph's elimination plan, built on first use and kept on the graph."""
    plan = g._elimination_plan
    if plan is None:
        plan = g._elimination_plan = EliminationPlan(g)
    return plan
