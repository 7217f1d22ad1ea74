"""Weighted-graph data model: measures, metrics, and canonical generators.

Vertices are opaque string labels; the global vertex order is lexicographic
and fixed at construction, so every sweep and every CSV row is reproducible.
Vertex fields are numpy arrays aligned with ``graph.vertices``; the
:class:`VertexField` wrapper carries the labels for IO boundaries.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedGraph",
    "VertexField",
    "build_graph",
    "parse_edge_lines",
    "load_graph",
    "field_values",
    "nu_mass",
    "inner_product_nu",
    "nu_norm",
    "distance_rows",
    "graph_distance",
    "constraint_distance",
    "nonlocal_boundary",
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
                 "_weight_map", "_elimination_plan")

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
        index = {v: k for k, v in enumerate(vertices)}

        self.vertices = tuple(vertices)
        self.index = index
        self.edges = tuple((a, b) for a, b, _ in cleaned)
        self.edge_index = np.array([[index[a], index[b]] for a, b, _ in cleaned],
                                   dtype=np.intp)
        self.weights = np.array([w for _, _, w in cleaned], dtype=float)

        degrees = np.zeros(len(vertices))
        nbrs: list[list[tuple[int, float]]] = [[] for _ in vertices]
        for (i, j), w in zip(self.edge_index, self.weights):
            degrees[i] += w
            degrees[j] += w
            nbrs[i].append((int(j), float(w)))
            nbrs[j].append((int(i), float(w)))
        self.degrees = degrees
        self.neighbors = tuple(tuple(sorted(n)) for n in nbrs)
        self._weight_map = {(a, b): w for a, b, w in cleaned}
        self._elimination_plan = None

        self._check_connected()

        guard = frozenset(str(v) for v in guard_vertices)
        unknown = guard - set(vertices)
        if unknown:
            raise ValueError(f"guard vertices {sorted(unknown)} not in graph")
        self.guard_vertices = guard
        self.guard_index = tuple(sorted(index[v] for v in guard))

    def _check_connected(self):
        n = len(self.vertices)
        seen = np.zeros(n, dtype=bool)
        queue = deque([0])
        seen[0] = True
        while queue:
            i = queue.popleft()
            for j, _ in self.neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
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

    def degree(self, vertex) -> float:
        return float(self.degrees[self.vertex_id(vertex)])

    def weight(self, x, y) -> float:
        """w_xy, or 0.0 when x and y are not adjacent."""
        a, b = str(x), str(y)
        if b < a:
            a, b = b, a
        return self._weight_map.get((a, b), 0.0)

    def __repr__(self):
        return f"WeightedGraph({self.n_vertices} vertices, {self.n_edges} edges)"


@dataclass(frozen=True)
class VertexField:
    """Real-valued vertex function (sand height, datum, source slice)."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n_vertices,):
            raise ValueError(f"field shape {vals.shape} does not match "
                             f"{self.graph.n_vertices} vertices")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, graph: WeightedGraph, mapping: Mapping, default: float = 0.0):
        vals = np.full(graph.n_vertices, float(default))
        for vertex, value in mapping.items():
            vals[graph.vertex_id(vertex)] = float(value)
        return cls(graph, vals)

    def as_dict(self) -> dict[str, float]:
        return {v: float(x) for v, x in zip(self.graph.vertices, self.values)}

    def __getitem__(self, vertex) -> float:
        return float(self.values[self.graph.vertex_id(vertex)])


def field_values(g: WeightedGraph, u) -> np.ndarray:
    """Coerce a VertexField, mapping, or array-like to an aligned float array."""
    if isinstance(u, VertexField):
        if u.graph is not g:
            raise ValueError("field belongs to a different graph")
        return u.values
    if isinstance(u, Mapping):
        return VertexField.from_dict(g, u).values
    vals = np.asarray(u, dtype=float)
    if vals.shape != (g.n_vertices,):
        raise ValueError(f"field shape {vals.shape} does not match "
                         f"{g.n_vertices} vertices")
    if not np.isfinite(vals).all():
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


def nu_mass(g: WeightedGraph, A: Iterable) -> float:
    """nu(A) = sum of weighted degrees over the vertex set A."""
    total = 0.0
    for v in A:
        total += g.degrees[g.vertex_id(v)]
    return float(total)


def inner_product_nu(g: WeightedGraph, u, v) -> float:
    """Degree-weighted pairing sum_x u(x) v(x) d_x."""
    uu = field_values(g, u)
    vv = field_values(g, v)
    return float(np.dot(uu * g.degrees, vv))


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
    given as `constraint_distance` takes them, use Dijkstra.  Adjacency and
    lengths are built once per call and each row is a fresh length-n array,
    so memory stays O(n + E) however many rows are drawn.
    """
    n = g.n_vertices
    hop = lengths is None
    if hop:
        adj = [[j for j, _ in nbrs] for nbrs in g.neighbors]
    else:
        adj = [[] for _ in range(n)]
        edge_lengths = _edge_lengths(g, lengths).tolist()
        for (i, j), c in zip(g.edge_index.tolist(), edge_lengths):
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


def graph_distance(g: WeightedGraph, x, y) -> int:
    """Hop metric: minimum number of edges on a path from x to y.

    Independent of the weights by definition.
    """
    src, dst = g.vertex_id(x), g.vertex_id(y)
    (_, row), = distance_rows(g, None, [src])
    return int(row[dst])


def _edge_lengths(g: WeightedGraph, c) -> np.ndarray:
    """Coerce per-edge lengths: array aligned with g.edges, a mapping on
    vertex pairs, or an object exposing `.bounds` (a ConstraintSet)."""
    if hasattr(c, "bounds"):
        c = c.bounds
    if isinstance(c, Mapping):
        out = np.empty(g.n_edges)
        for k, (a, b) in enumerate(g.edges):
            if (a, b) in c:
                out[k] = c[(a, b)]
            elif (b, a) in c:
                out[k] = c[(b, a)]
            else:
                raise KeyError(f"no length for edge ({a!r}, {b!r})")
    else:
        out = np.asarray(c, dtype=float)
        if out.shape != (g.n_edges,):
            raise ValueError(f"expected {g.n_edges} edge lengths, got {out.shape}")
    if np.any(out <= 0) or not np.all(np.isfinite(out)):
        raise ValueError("edge lengths must be strictly positive")
    return out


def constraint_distance(g: WeightedGraph, c, x, y) -> float:
    """Shortest-path distance with per-edge lengths c_xy (Dijkstra).

    With c = 1/sqrt(w) this is the weighted metric of the second model; with
    c identically 1 it coincides with graph_distance.
    """
    src, dst = g.vertex_id(x), g.vertex_id(y)
    (_, row), = distance_rows(g, c, [src])
    return float(row[dst])


def nonlocal_boundary(g: WeightedGraph, A: Iterable) -> set[str]:
    """{y not in A : y ~ x for some x in A}."""
    inside = {g.vertex_id(v) for v in A}
    out = set()
    for i in inside:
        for j, _ in g.neighbors[i]:
            if j not in inside:
                out.add(g.vertices[j])
    return out


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
