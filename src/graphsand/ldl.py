"""Sparse LDL^T solve for symmetric systems with a graph's sparsity pattern.

The Newton step of the p-energy resolvent solves H x = b with
H = diag(d) + off-diagonal entries on the graph's edges only.  Dense
elimination would cost O(n^3) time and O(n^2) memory; here the elimination
order and the fill pattern are worked out once per graph (the symbolic
phase, pure Python), and each solve (the numeric phase) is a handful of
numpy calls per elimination round.

Ordering: in the spirit of Liu's multiple minimum degree (ACM TOMS 1985),
each round eliminates a greedy independent set of low-degree vertices of
the filled graph, so pivots of one round never touch each other and their
updates can be scattered together with np.bincount.  On a path this is
cyclic reduction: a path of 401 vertices takes 8 rounds.

A solve keeps one state vector S = [d | x | L] (diagonal, right-hand side,
factor slots).  A forward round is 8 numpy calls (a gather, a divide, a
product of two gathers, one np.bincount of all its updates, a subtract over
all of S, the write of its factors), a back round 4; each target sums its
updates from 0.0 in round order, and an entry no update reaches loses
exactly 0.0.  A round so costs O(state) rather than O(pivots + fill), which
is cheap up to a few thousand entries (ROADMAP item 10).

H must be symmetric positive definite, for which LDL^T without pivoting is
backward stable.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph

__all__ = ["EliminationPlan", "elimination_plan"]


def _eliminate(g: WeightedGraph):
    """The symbolic phase: (n_slots, rounds), a round being the lists (slot,
    piv, nbr, fa, fb, ft).  Triple t pairs pivot piv[t] with a live neighbour
    nbr[t] through slot[t] (edges first, then fill slots); fill update f adds
    the product of triples fa[f] and fb[f] (same pivot) into slot ft[f]."""
    n = g.n_vertices
    adj = [dict(p) for p in g.incidence]  # neighbour -> factor slot
    n_slots = g.n_edges
    alive = set(range(n))
    rounds = []
    while alive:
        degree = {v: len(adj[v]) for v in alive}
        cap = max(2, 2 * min(degree.values()))
        pivots, blocked = [], set()
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
            rounds.append((slot, piv, nbr, fa, fb, ft))
    return n_slots, rounds


class EliminationPlan:
    """Elimination order and fill pattern of one graph, as index tables into
    the solve's state S = [d | x | L].  Build it once with elimination_plan."""

    __slots__ = ("n_edges", "n_slots", "rounds")

    def __init__(self, g: WeightedGraph):
        n = g.n_vertices
        self.n_edges = g.n_edges
        self.n_slots, rounds = _eliminate(g)
        tables = []
        for r in rounds:
            slot, piv, nbr, fa, fb, ft = (np.array(a, dtype=np.intp) for a in r)
            t = len(slot)
            s, xn, own = slot + 2 * n, nbr + n, np.arange(t)
            # G = S[gather] is [h | d[piv] | x[piv]] and update u is
            # l[left[u]] * G[right[u]]: l h into d, l x[piv] into x, fill into L
            left = np.concatenate((own, own, fa))
            right = np.concatenate((own, own + 2 * t, fb))
            into = np.concatenate((nbr, xn, ft + 2 * n))
            tables.append(((t, s, np.concatenate((s, piv, piv + n)), left, right, into),
                           (t, np.concatenate((s, xn)), piv)))
        self.rounds = tuple(tables)  # (forward, back) tables per round

    def solve(self, diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs, H = diag(diag) plus H[i, j] = H[j, i] = off[e]
        on each edge e = (i, j); H must be symmetric positive definite."""
        n = len(diag)
        S = np.concatenate((diag, rhs, off, np.zeros(self.n_slots - self.n_edges)),
                           dtype=float)
        # factor, with the forward substitution L z = rhs folded in
        for (t, s, gather, left, right, into), _ in self.rounds:
            G = S[gather]
            l = G[:t] / G[t:2 * t]
            S -= np.bincount(into, weights=l[left] * G[right], minlength=len(S))
            S[s] = l
        x = S[n:2 * n]
        x /= S[:n]
        # back substitution L^T x = z, latest pivots first
        for _, (t, gather, into) in reversed(self.rounds):
            G = S[gather]
            x -= np.bincount(into, weights=G[:t] * G[t:], minlength=n)
        return x


def elimination_plan(g: WeightedGraph) -> EliminationPlan:
    """The graph's elimination plan, built on first use and kept on the graph."""
    plan = g._elimination_plan
    if plan is None:
        plan = g._elimination_plan = EliminationPlan(g)
    return plan
