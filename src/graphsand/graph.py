"""Weighted-graph data model: measures, metrics, and canonical generators.

Vertices are opaque string labels; the global vertex order is lexicographic
and fixed at construction, so every sweep and every CSV row is reproducible.
Vertex fields are numpy arrays aligned with ``graph.vertices``, or
``{vertex: value}`` mappings (zero elsewhere) at the API edge.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "WeightedGraph",
    "build_graph",
    "parse_edge_lines",
    "load_graph",
    "field_values",
    "nu_norm",
    "distance_rows",
    "build_path",
    "build_star",
    "build_truncated_z",
]


class WeightedGraph:
    """Connected undirected graph with positive symmetric edge weights.

    Edges are stored once per unordered pair, sorted by vertex-id pair, and
    the weighted degrees d_x = sum of incident weights are cached.  Instances
    are immutable after construction and safe to share between solver runs;
    the only lazily filled slot is the sparse elimination plan of the
    Newton solve (see :mod:`graphsand.ldl`), which lives and dies with the
    graph.
    """

    __slots__ = ("vertices", "index", "edges", "edge_index", "weights",
                 "degrees", "neighbors", "guard_vertices", "guard_index",
                 "_elimination_plan")

    def __init__(self, edge_list, guard_vertices: Iterable[str] = ()):
        cleaned = []
        seen = set()
        for entry in edge_list:
            try:
                a, b, w = entry
            except (TypeError, ValueError):
                raise ValueError(f"edge entry {entry!r} is not (vertex, vertex, weight)")
            a, b = str(a), str(b)
            w = float(w)
            if a == b:
                raise ValueError(f"self-loop on vertex {a!r} is not allowed")
            if not np.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge ({a!r}, {b!r}) has nonpositive weight {w}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]!r}, {key[1]!r})")
            seen.add(key)
            cleaned.append((key[0], key[1], w))
        if not cleaned:
            raise ValueError("graph needs at least one edge")

        cleaned.sort(key=lambda e: (e[0], e[1]))
        vertices = sorted({v for a, b, _ in cleaned for v in (a, b)})
        # labels are written unquoted into `t,vertex,u` CSV rows
        bad = next((v for v in vertices if "," in v or "\r" in v or "\n" in v), None)
        if bad is not None:
            raise ValueError(f"vertex label {bad!r} contains ',' or a line break")
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
        nbrs: list[list[int]] = [[] for _ in vertices]
        for i, j in self.edge_index.tolist():
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.neighbors = tuple(tuple(sorted(n)) for n in nbrs)
        self._elimination_plan = None

        self._check_connected()

        guard = frozenset(str(v) for v in guard_vertices)
        unknown = guard - set(vertices)
        if unknown:
            raise ValueError(f"guard vertices {sorted(unknown)} not in graph")
        self.guard_vertices = guard
        self.guard_index = tuple(sorted(index[v] for v in guard))

    def _check_connected(self):
        _, hops = next(distance_rows(self, None, [0]))
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


def parse_edge_lines(text: str) -> WeightedGraph:
    """Parse the edge-list format: one `<vertex> <vertex> <weight>` per line.

    Blank lines and lines starting with '#' are skipped.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected '<vertex> <vertex> <weight>', "
                             f"got {raw!r}")
        try:
            w = float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad weight {parts[2]!r}")
        edges.append((parts[0], parts[1], w))
    return build_graph(edges)


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_lines(fh.read())


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


def distance_rows(g: WeightedGraph, lengths=None, sources=None):
    """Yield (source, row) for each source vertex id (default: all), where
    row[k] is the shortest-path distance from the source to vertex k.

    `lengths=None` is the hop metric (breadth-first search); per-edge lengths,
    an array aligned with g.edges, use Dijkstra.  Adjacency and lengths are
    built once per call and each row is a fresh length-n array, so memory
    stays O(n + E) however many rows are drawn.
    """
    n = g.n_vertices
    hop = lengths is None
    if hop:
        adj = g.neighbors
    else:
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape != (g.n_edges,):
            raise ValueError(f"expected {g.n_edges} edge lengths, got {lengths.shape}")
        if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
            raise ValueError("edge lengths must be strictly positive")
        adj = [[] for _ in range(n)]
        for (i, j), c in zip(g.edge_index.tolist(), lengths.tolist()):
            adj[i].append((j, c))
            adj[j].append((i, c))
    for src in range(n) if sources is None else sources:
        dist = [np.inf] * n
        dist[src] = 0.0
        if hop:
            order = [src]
            for i in order:  # grows while scanned: the BFS queue
                for j in adj[i]:
                    if dist[j] == np.inf:
                        dist[j] = dist[i] + 1.0
                        order.append(j)
        else:
            done = [False] * n
            heap = [(0.0, src)]
            while heap:
                d, i = heapq.heappop(heap)
                if done[i]:
                    continue
                done[i] = True
                for j, c in adj[i]:
                    nd = d + c
                    if nd < dist[j]:
                        dist[j] = nd
                        heapq.heappush(heap, (nd, j))
        yield src, np.array(dist)


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
