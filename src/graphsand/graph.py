"""Weighted-graph data model: measures, metrics, and canonical generators.

Vertices are opaque string labels; the global vertex order is lexicographic
and fixed at construction, so every sweep and every CSV row is reproducible.
Vertex fields are numpy arrays aligned with ``graph.vertices``, or
``{vertex: value}`` mappings (zero elsewhere) at the API edge.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "WeightedGraph",
    "build_graph",
    "load_graph",
    "field_values",
    "nu_norm",
    "distance_rows",
    "distance_balls",
    "build_path",
    "build_star",
    "build_truncated_z",
]


class WeightedGraph:
    """Connected undirected graph with positive symmetric edge weights.

    Edges are stored once per unordered pair, sorted by vertex-id pair, and
    the weighted degrees d_x = sum of incident weights are cached.
    `incidence[x]` lists x's (neighbour, edge) id pairs, neighbours
    ascending: the one adjacency that every search and the elimination plan
    walk.  Instances are immutable after construction and safe to share
    between solver runs; the only lazily filled slot is the sparse
    elimination plan of the Newton solve (see :mod:`graphsand.ldl`), which
    lives and dies with the graph.
    """

    __slots__ = ("vertices", "index", "edges", "edge_index", "weights",
                 "degrees", "incidence", "guard_index", "_elimination_plan")

    def __init__(self, edge_list, guard_vertices: Iterable[str] = ()):
        seen: set = set()
        cleaned = sorted(_edge_entry(entry, seen) for entry in edge_list)
        if not cleaned:
            raise ValueError("graph needs at least one edge")

        vertices = sorted({v for a, b, _ in cleaned for v in (a, b)})
        index = {v: k for k, v in enumerate(vertices)}

        self.vertices = tuple(vertices)
        self.index = index
        self.edges = tuple((a, b) for a, b, _ in cleaned)
        self.edge_index = np.array([[index[a], index[b]] for a, b, _ in cleaned],
                                   dtype=np.intp)
        self.weights = np.array([w for _, _, w in cleaned], dtype=float)

        # bincount adds in edge order, as a loop over the edges would
        self.degrees = np.bincount(self.edge_index.ravel(),
                                   weights=self.weights.repeat(2))
        # the edges are sorted, so each vertex's pairs come neighbours ascending
        incidence: list[list[tuple[int, int]]] = [[] for _ in vertices]
        for e, (i, j) in enumerate(self.edge_index.tolist()):
            incidence[i].append((j, e))
            incidence[j].append((i, e))
        self.incidence = tuple(map(tuple, incidence))
        self._elimination_plan = None

        self._check_connected()

        guard = frozenset(str(v) for v in guard_vertices)
        unknown = guard - set(vertices)
        if unknown:
            raise ValueError(f"guard vertices {sorted(unknown)} not in graph")
        self.guard_index = tuple(sorted(index[v] for v in guard))

    def _check_connected(self):
        _, hops = next(distance_rows(self, "graph", [0]))
        seen = hops < np.inf
        if not seen.all():
            missing = [self.vertices[k] for k in np.flatnonzero(~seen)[:4]]
            raise ValueError(f"graph is disconnected (e.g. {missing} unreachable)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_id(self, vertex) -> int:
        try:
            return self.index[str(vertex)]
        except KeyError:
            raise KeyError(f"unknown vertex {vertex!r}")

    def __repr__(self):
        return f"WeightedGraph({self.n_vertices} vertices, {self.n_edges} edges)"


def _edge_entry(entry, seen: set) -> tuple[str, str, float]:
    """An edge entry, checked against `seen` (the pairs before it), ends in order."""
    try:
        a, b, w = entry
    except (TypeError, ValueError):
        raise ValueError(f"edge entry {entry!r} is not (vertex, vertex, weight)")
    a, b, w = str(a), str(b), float(w)
    if a == b:
        raise ValueError(f"self-loop on vertex {a!r} is not allowed")
    for v in (a, b):  # labels are written unquoted into `t,vertex,u` CSV rows
        if "," in v or "\r" in v or "\n" in v:
            raise ValueError(f"vertex label {v!r} contains ',' or a line break")
    if not (w > 0.0 and math.isfinite(w)):
        fault = "nonpositive" if w <= 0.0 else "non-finite"
        raise ValueError(f"edge ({a!r}, {b!r}) has {fault} weight {w}")
    key = (a, b) if a < b else (b, a)
    if key in seen:
        raise ValueError(f"duplicate edge ({key[0]!r}, {key[1]!r})")
    seen.add(key)
    return key[0], key[1], w


def field_values(g: WeightedGraph, u) -> np.ndarray:
    """Coerce a {vertex: value} mapping (zero elsewhere) or an array-like
    aligned with g.vertices to a float array."""
    if type(u) is np.ndarray and u.dtype == float:  # the solvers' own fields
        vals = u
    elif isinstance(u, Mapping):
        vals = np.zeros(g.n_vertices)
        for vertex, value in u.items():
            vals[g.vertex_id(vertex)] = float(value)
    else:
        vals = np.asarray(u)
        if vals.dtype.kind not in "iuf":
            raise ValueError(
                f"field values must be real numbers, got dtype {vals.dtype}")
        vals = vals.astype(float, copy=False)
    if vals.shape != (g.n_vertices,):
        raise ValueError(f"field shape {vals.shape} does not match "
                         f"{g.n_vertices} vertices")
    if np.count_nonzero(np.isfinite(vals)) != vals.size:
        raise ValueError("field values must be finite")
    return vals


def build_graph(edge_list: Sequence[tuple]) -> WeightedGraph:
    """Build a graph from (vertex, vertex, weight) triples.

    Weights must be strictly positive, pairs distinct and unduplicated, and
    the resulting graph connected; anything else raises ValueError.
    """
    return WeightedGraph(edge_list)


def _read_records(text: str, where: str, form: str, record) -> list:
    """record(*labels, number) of each line of `text` with the fields of `form`,
    blank and '#' lines skipped; a fault raises ValueError at `{where}{line}: `.
    Lines end at "\n" only (text-mode reads turn "\r\n" and "\r" into it):
    a form feed or a Unicode line separator inside a line does not end it."""
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            if len(fields) != len(form.split()):
                raise ValueError(f"expected {form!r}, got {raw!r}")
            number = float(fields[-1])
            if not math.isfinite(number):
                raise ValueError(f"{fields[-1]!r} is not a finite number")
            out.append(record(*fields[:-1], number))
        except ValueError as exc:
            raise ValueError(f"{where}{lineno}: {exc}") from None
    return out


def load_graph(path) -> WeightedGraph:
    """The graph of an edge-list file: one `<vertex> <vertex> <weight>` per
    line, blank and '#' lines skipped; a fault of line N reads `path:N: ...`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    where, form = f"{path}:", "<vertex> <vertex> <weight>"
    entries = _read_records(text, where, form, lambda a, b, w: (a, b, w))
    try:
        return build_graph(entries)
    except ValueError:
        # the graph checks each entry; only a refused file is read again, to
        # name the line of a faulty entry (a fault of the whole graph stands)
        seen: set = set()
        _read_records(text, where, form, lambda a, b, w: _edge_entry((a, b, w), seen))
        raise


def nu_norm(g: WeightedGraph, u, ord: float = 2) -> float:
    """Norm of a vertex field: nu-weighted for ord in {1, 2}, sup for inf."""
    vals = field_values(g, u)
    if ord == 1:
        return float(np.dot(g.degrees, np.abs(vals)))
    if ord == 2:
        return float(np.sqrt(np.dot(g.degrees, vals * vals)))
    if ord in (np.inf, float("inf")):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    raise ValueError(f"unsupported norm order {ord!r}")


def _metric(g: WeightedGraph, lengths):
    """"graph" (hops), or `lengths` as read-only positive finite edge lengths."""
    if isinstance(lengths, str) and lengths == "graph":
        return lengths
    try:
        out = np.array(lengths, dtype=float)
    except (TypeError, ValueError):  # "hops", say
        out = np.array(math.nan)
    if out.shape != (g.n_edges,) or not np.all((out > 0) & np.isfinite(out)):
        raise ValueError(f'distance: must be "graph" or {g.n_edges} positive '
                         f"finite edge lengths, got {lengths!r}")
    out.flags.writeable = False
    return out


def distance_rows(g: WeightedGraph, lengths="graph", sources=None):
    """Yield (source, row) for each source vertex id (default: all), where
    row[k] is the shortest-path distance from the source to vertex k.

    `lengths` is "graph", the hop metric (breadth-first search), or
    per-edge lengths, an array aligned with g.edges (Dijkstra).  Each row is
    an unbounded search of `distance_balls` copied into a fresh length-n
    array, so memory stays O(n + E) however many rows are drawn.
    """
    sources = range(g.n_vertices) if sources is None else sources
    for src, _ball, dist in distance_balls(g, lengths, sources):
        yield src, np.array(dist)


def distance_balls(g: WeightedGraph, lengths, sources, reaches=None):
    """Yield (source, ball, dist) for each source vertex id, searching only
    out to the source's reach (the matching `reaches` entry; none: no bound).

    `ball` lists, in search order, every vertex id within the reach, and
    may list some beyond it; `dist[k]` is the exact distance of each k in
    `ball`, the very float a search without a reach computes.  `dist` is
    one buffer per call and is valid only until the next row is drawn:
    entries touched by a search are reset after it, so a search costs
    O(ball) rather than O(n).  Hops (`lengths="graph"`) use breadth-first
    search, per-edge lengths Dijkstra, both over `g.incidence`.
    """
    inf, pop, push = math.inf, heapq.heappop, heapq.heappush
    lengths = _metric(g, lengths)
    hops = isinstance(lengths, str)
    lengths = lengths if hops else lengths.tolist()
    adj = g.incidence
    if reaches is None:
        reaches = itertools.repeat(inf)
    dist = [inf] * g.n_vertices
    for src, reach in zip(sources, reaches):
        dist[src] = 0.0
        if hops:
            ball = touched = [src]
            for i in ball:  # grows while scanned: the BFS queue
                d = dist[i]
                if d >= reach:  # level order: the rest lie at d or beyond
                    break
                d += 1.0
                for j, _ in adj[i]:
                    if dist[j] == inf:
                        dist[j] = d
                        ball.append(j)
        else:
            ball, touched = [], [src]
            heap = [(0.0, src)]
            while heap:
                d, i = pop(heap)
                if d > reach:  # every vertex left is farther
                    break
                if d > dist[i]:  # a stale entry: i was settled before
                    continue
                ball.append(i)
                for j, e in adj[i]:
                    nd = d + lengths[e]
                    if nd < dist[j]:
                        if dist[j] == inf:
                            touched.append(j)
                        dist[j] = nd
                        push(heap, (nd, j))
        yield src, ball, dist
        for k in touched:
            dist[k] = inf


def build_path(n: int, weights: Sequence[float] | None = None) -> WeightedGraph:
    """Path graph x1 - x2 - ... - xn; unit weights unless given n-1 weights."""
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    if weights is None:
        weights = [1.0] * (n - 1)
    if len(weights) != n - 1:
        raise ValueError(f"need {n - 1} weights for a path on {n} vertices")
    return build_graph([(f"x{k}", f"x{k + 1}", w) for k, w in enumerate(weights, 1)])


def build_star(weights: Sequence[float]) -> WeightedGraph:
    """Star-shaped graph x0 - x1 < (x2, x3, ...) with hub x1.

    `weights` are (w01, w12, w13, ...): the first weight attaches the source
    leaf x0 to the hub, the rest attach the remaining leaves.
    """
    if len(weights) < 2:
        raise ValueError("star needs at least 2 edges")
    edges = [("x0", "x1", weights[0])]
    edges += [("x1", f"x{k}", w) for k, w in enumerate(weights[1:], 2)]
    return build_graph(edges)


def build_truncated_z(radius: int) -> WeightedGraph:
    """Finite window {-R..R} of the unit-weight integer lattice.

    The outermost two rings on each side are recorded as the guard band:
    solver runs error out as soon as a step leaves a nonzero value there.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    edges = [(str(k), str(k + 1), 1.0) for k in range(-radius, radius)]
    guard = {str(s * k) for k in (radius, radius - 1) for s in (1, -1) if k > 0}
    return WeightedGraph(edges, guard_vertices=guard)
