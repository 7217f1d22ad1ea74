"""Scenario documents, trajectory CSV files, and the run dispatcher.

Scenarios are JSON objects with exact decimal numerals; trajectories are
written as `t,vertex,u` CSV rows with a sibling `<name>.mass.csv` holding the
per-step mass residuals.  Floats are serialized with repr() so a write/read
round trip reproduces every value bit for bit and reruns are byte-identical.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evolution import SourceSchedule, Trajectory, solve_collapse, solve_growth, \
    solve_p_flow
from .graph import WeightedGraph, build_graph, build_path, build_star, \
    build_truncated_z, load_graph
from .proximal import CONSTRAINT_KINDS, ConstraintSet, is_stable

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
    "run_scenario",
    "write_trajectory",
    "read_trajectory",
]

_COMMON_KEYS = ("graph", "constraint", "mode", "u0", "dt", "tol",
                "sample_every", "output", "runtime_budget_s")
# the document keys each mode reads; collapse runs from the rescaled datum
# up to t = 1 without a source, and accepts only "source": [] and "T": 1
_MODE_KEYS = {
    "growth": _COMMON_KEYS + ("source", "T"),
    "p-flow": _COMMON_KEYS + ("source", "T", "p"),
    "collapse": _COMMON_KEYS + ("source", "T"),
}
MODES = tuple(_MODE_KEYS)
_GRAPH_KEYS = {"edges": ("edges",), "file": ("path",), "path": ("n", "weights"),
               "star": ("weights",), "truncated_z": ("radius",)}
_SEGMENT_KEYS = ("start", "end", "values")


class ScenarioError(ValueError):
    """Scenario document violates the schema; message carries the field path."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _known_keys(node: dict, allowed, path: str, where: str = ""):
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key" + where)


def _number(val, path, default=None, positive=False):
    if val is None:
        return default
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        _fail(path, f"expected a number, got {val!r}")
    val = float(val)
    if positive and val <= 0:
        _fail(path, f"must be positive, got {val}")
    if not math.isfinite(val):
        _fail(path, "must be finite")
    return val


@dataclass
class ScenarioConfig:
    """Validated scenario: graph, constraint kind, mode, data, and steps."""

    graph: WeightedGraph
    constraint: str          # a CONSTRAINT_KINDS token
    mode: str                # one of MODES
    u0: np.ndarray
    source: SourceSchedule
    T: float
    dt: float
    tol: float
    p: float | None = None
    output: str | None = None
    sample_every: int = 1

    def constraint_set(self) -> ConstraintSet:
        return ConstraintSet.from_kind(self.graph, self.constraint)


def _build_scenario_graph(node, base_dir: Path) -> WeightedGraph:
    path = "graph"
    if not isinstance(node, dict):
        _fail(path, "expected an object")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _GRAPH_KEYS:
        _fail(f"{path}.kind", f"unknown graph kind {kind!r}")
    _known_keys(node, ("kind",) + _GRAPH_KEYS[kind], path)
    if kind == "edges":
        edges = node.get("edges")
        if not isinstance(edges, list) or not edges:
            _fail(f"{path}.edges", "expected a non-empty list")
        try:
            return build_graph([tuple(e) for e in edges])
        except ValueError as exc:
            _fail(f"{path}.edges", str(exc))
    if kind == "file":
        rel = node.get("path")
        if not isinstance(rel, str):
            _fail(f"{path}.path", "expected a file path string")
        try:
            return load_graph(base_dir / rel)
        except (OSError, ValueError) as exc:
            _fail(f"{path}.path", str(exc))
    if kind == "path":
        n = node.get("n")
        if not isinstance(n, int) or n < 2:
            _fail(f"{path}.n", "expected an integer >= 2")
        return build_path(n, node.get("weights"))
    if kind == "star":
        weights = node.get("weights")
        if not isinstance(weights, list) or len(weights) < 2:
            _fail(f"{path}.weights", "expected a list of at least 2 weights")
        return build_star(weights)
    radius = node.get("radius")
    if not isinstance(radius, int) or radius < 1:
        _fail(f"{path}.radius", "expected an integer >= 1")
    return build_truncated_z(radius)


def _sparse_field(g: WeightedGraph, doc, path: str) -> np.ndarray:
    if doc is None:
        return np.zeros(g.n_vertices)
    if not isinstance(doc, dict):
        _fail(path, "expected an object mapping vertex to value")
    vals = np.zeros(g.n_vertices)
    for vertex, value in doc.items():
        try:
            k = g.vertex_id(vertex)
        except KeyError:
            _fail(f"{path}.{vertex}", "unknown vertex")
        vals[k] = _number(value, f"{path}.{vertex}")
    return vals


def parse_scenario(text: str, base_dir: Path | str = ".") -> ScenarioConfig:
    """Parse and validate a scenario document; defaults dt=1e-3, tol=1e-10."""
    base_dir = Path(base_dir)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"document: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        _fail("mode", f"expected one of {MODES}, got {mode!r}")
    _known_keys(doc, _MODE_KEYS[mode], "", f" in {mode} mode")

    g = _build_scenario_graph(doc.get("graph"), base_dir)

    tokens = {spec.token: spec for spec in CONSTRAINT_KINDS.values()}
    constraint = doc.get("constraint", "uniform")
    if not isinstance(constraint, str) or constraint not in tokens:
        _fail("constraint", f"expected one of {tuple(tokens)}, got {constraint!r}")

    p = None
    if mode == "p-flow":
        p = _number(doc.get("p"), "p")
        if p is None or p < 2:
            _fail("p", "p-flow mode needs p >= 2")
        if tokens[constraint].model is None:
            with_model = tuple(t for t, spec in tokens.items() if spec.model)
            _fail("constraint", f"p-flow supports {with_model} only")

    u0 = _sparse_field(g, doc.get("u0"), "u0")

    segments = []
    src = doc.get("source", [])
    if not isinstance(src, list):
        _fail("source", "expected a list of segments")
    for k, seg in enumerate(src):
        spath = f"source[{k}]"
        if not isinstance(seg, dict):
            _fail(spath, "expected an object")
        _known_keys(seg, _SEGMENT_KEYS, spath)
        t0 = _number(seg.get("start"), f"{spath}.start")
        t1 = _number(seg.get("end"), f"{spath}.end")
        if t0 is None or t1 is None:
            _fail(spath, "needs numeric 'start' and 'end'")
        if not t0 < t1:
            _fail(spath, f"empty time interval [{t0}, {t1})")
        segments.append((t0, t1, _sparse_field(g, seg.get("values"), f"{spath}.values")))
    if mode == "collapse" and segments:
        _fail("source", "collapse mode takes no source")
    try:
        schedule = SourceSchedule(g, tuple(segments))
    except ValueError as exc:
        _fail("source", str(exc))

    T = _number(doc.get("T"), "T", default=1.0 if mode == "collapse" else None,
                positive=True)
    if T is None:
        _fail("T", "required")
    if mode == "collapse" and T != 1.0:
        _fail("T", f"collapse mode ends at T = 1, got {T}")
    dt = _number(doc.get("dt"), "dt", default=1e-3, positive=True)
    tol = _number(doc.get("tol"), "tol", default=1e-10, positive=True)

    sample_every = doc.get("sample_every", 1)
    if not isinstance(sample_every, int) or isinstance(sample_every, bool) \
            or sample_every < 1:
        _fail("sample_every", "expected a positive integer")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        _fail("output", "expected a path string")
    # a wall-time budget for tests and benchmarks; the library ignores it
    _number(doc.get("runtime_budget_s"), "runtime_budget_s", positive=True)

    cfg = ScenarioConfig(g, constraint, mode, u0, schedule, T, dt, tol, p,
                         output, sample_every)
    if mode == "growth" and not is_stable(u0, cfg.constraint_set(), 1e-8):
        _fail("u0", "initial datum not stable for the constraint set")
    return cfg


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    return parse_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


def run_scenario(cfg: ScenarioConfig) -> Trajectory:
    """Execute a scenario in its declared mode, keeping every
    cfg.sample_every-th state and the last one."""
    g, every = cfg.graph, cfg.sample_every
    if cfg.mode == "growth":
        return solve_growth(g, cfg.constraint_set(), cfg.u0, cfg.source,
                            cfg.T, cfg.dt, tol=cfg.tol, sample_every=every)
    if cfg.mode == "p-flow":
        return solve_p_flow(g, cfg.p, cfg.constraint_set().model(), cfg.u0,
                            cfg.source, cfg.T, cfg.dt, tol=cfg.tol,
                            sample_every=every)
    if cfg.mode == "collapse":
        return solve_collapse(g, cfg.constraint_set(), cfg.u0, cfg.dt,
                              tol=cfg.tol, sample_every=every)[1]
    raise ScenarioError(f"mode: unknown mode {cfg.mode!r}")  # pragma: no cover


def _mass_path(path: Path) -> Path:
    return path.with_suffix(".mass.csv") if path.suffix == ".csv" \
        else Path(str(path) + ".mass.csv")


def write_trajectory(traj: Trajectory, path) -> Path:
    """Write `t,vertex,u` rows plus the sibling mass-residual CSV."""
    path = Path(path)
    buf = io.StringIO()
    buf.write("t,vertex,u\n")
    vertices = traj.graph.vertices
    for t, state in zip(traj.times, traj.states):
        ts = repr(float(t))
        for v, x in zip(vertices, state):
            buf.write(f"{ts},{v},{repr(float(x))}\n")
    path.write_text(buf.getvalue(), encoding="utf-8")

    mbuf = io.StringIO()
    mbuf.write("t,residual\n")
    for t, r in zip(traj.step_times, traj.mass_residuals):
        mbuf.write(f"{repr(float(t))},{repr(float(r))}\n")
    _mass_path(path).write_text(mbuf.getvalue(), encoding="utf-8")
    return path


def read_trajectory(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a trajectory CSV back as (times, vertices, states)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,vertex,u":
        raise ValueError(f"{path}: not a trajectory CSV")
    by_time: dict[float, dict[str, float]] = {}
    order: list[float] = []
    vertices: dict[str, None] = {}  # insertion-ordered set
    for line in lines[1:]:
        ts, v, x = line.split(",")
        t = float(ts)
        if t not in by_time:
            by_time[t] = {}
            order.append(t)
        by_time[t][v] = float(x)
        vertices[v] = None
    states = np.array([[by_time[t][v] for v in vertices] for t in order])
    return np.asarray(order), list(vertices), states
