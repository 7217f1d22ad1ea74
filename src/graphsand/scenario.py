"""Scenario documents, trajectory CSV files, and the run dispatcher.

Scenarios are JSON objects with exact decimal numerals; trajectories are
written as `t,vertex,u` CSV rows with a sibling `<name>.mass.csv` holding the
per-step mass residuals.  Floats are serialized with repr() so a write/read
round trip reproduces every value bit for bit and reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .evolution import MAX_STEPS, SourceSchedule, Trajectory, solve_collapse, \
    solve_growth, solve_p_flow
from .graph import WeightedGraph, _edge_entry, build_graph, build_path, \
    build_star, build_truncated_z, load_graph
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
# the largest graph.n and graph.radius a scenario may ask for: far above every
# shipped and benchmark graph (a few hundred vertices), far below a size
# whose construction would exhaust memory before any other check
MAX_GRAPH_COUNT = 100_000
# T/dt (1/dt in collapse mode) is bounded by evolution.MAX_STEPS, the cap of
# its time grid, which is built in full before the first step

# the most state cells (kept samples x vertices) a run may hold: the kept
# states are held in memory, 8 bytes a cell, until the CSV is written
MAX_STATE_CELLS = 1 << 25

# write_trajectory compares about this many cells per numpy call, so it
# holds the changed cells of a block of rows, never of the whole trajectory
_WRITE_BLOCK = 1 << 14


class ScenarioError(ValueError):
    """Scenario document violates the schema; message carries the field path."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _unique_keys(pairs) -> dict:
    """One JSON object; json.loads alone keeps the last of a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            _fail("document", f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _known_keys(node: dict, allowed, path: str, where: str = ""):
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key" + where)


def _number(val, path, default=None, positive=False):
    if val is None:
        return default
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        _fail(path, f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # an integer literal beyond the float range
        val = math.inf if val > 0 else -math.inf
    if positive and val <= 0:
        _fail(path, f"must be positive, got {val}")
    if not math.isfinite(val):
        _fail(path, "must be finite")
    return val


def _required(val, path, positive=False):
    """A number that must be present: null is not a number here."""
    if val is None:
        _fail(path, "expected a number, got None")
    return _number(val, path, positive=positive)


def _count(node: dict, key: str, low: int) -> int:
    """graph.n or graph.radius: an integer from low to MAX_GRAPH_COUNT."""
    val = node.get(key)
    if not isinstance(val, int) or isinstance(val, bool) or val < low:
        _fail(f"graph.{key}", f"expected an integer >= {low}")
    if val > MAX_GRAPH_COUNT:
        _fail(f"graph.{key}", f"must be at most {MAX_GRAPH_COUNT}")
    return val


def _weights(node, path, count=None):
    """A list of positive edge weights: `count` of them, or at least 2."""
    if not isinstance(node, list) or \
            (len(node) != count if count else len(node) < 2):
        _fail(path, f"expected a list of {count or 'at least 2'} weights")
    return [_required(w, f"{path}[{k}]", positive=True) for k, w in enumerate(node)]


@dataclass
class ScenarioConfig:
    """Validated scenario: graph, constraint kind, mode, data, and steps."""

    graph: WeightedGraph
    constraint: str          # a CONSTRAINT_KINDS key
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


def _build_scenario_graph(node, base_dir: Path, fits) -> WeightedGraph:
    """The graph of a scenario's graph node; fits(n) refuses a path or a Z
    window of n vertices before it is built."""
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
        for k, e in enumerate(edges):
            if not isinstance(e, list) or len(e) != 3:
                _fail(f"{path}.edges[{k}]", "expected [vertex, vertex, weight]")
            for end in (0, 1):
                if not isinstance(e[end], (str, int)) or isinstance(e[end], bool):
                    _fail(f"{path}.edges[{k}][{end}]",
                          f"expected a vertex label (string or integer), "
                          f"got {e[end]!r}")
        triples = [(a, b, _required(w, f"{path}.edges[{k}][2]", positive=True))
                   for k, (a, b, w) in enumerate(edges)]
        try:
            return build_graph(triples)
        except ValueError as exc:
            # check the entries again one by one, to name a faulty one
            seen: set = set()
            for k, entry in enumerate(triples):
                try:
                    _edge_entry(entry, seen)
                except ValueError as fault:
                    _fail(f"{path}.edges[{k}]", str(fault))
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
        n = _count(node, "n", 2)
        fits(n)
        weights = node.get("weights")
        if weights is not None:
            weights = _weights(weights, f"{path}.weights", n - 1)
        return build_path(n, weights)
    if kind == "star":
        return build_star(_weights(node.get("weights"), f"{path}.weights"))
    radius = _count(node, "radius", 1)
    fits(2 * radius + 1)
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
        vals[k] = _required(value, f"{path}.{vertex}")
    return vals


def _check_steps(T: float, dt: float):
    """Refuse a run of T / dt steps beyond MAX_STEPS, naming dt."""
    if T / dt > MAX_STEPS:
        _fail("dt", f"T/dt asks for {T / dt:.6g} steps, at most {MAX_STEPS}")


def _check_state_cells(n: int, T: float, dt: float, every: int, key: str):
    """Refuse, naming key, a run on n vertices whose kept states, every
    every-th of about T / dt steps and the last, exceed MAX_STATE_CELLS.
    T / dt is at most MAX_STEPS, so every is capped there: the count is
    the same, and an integer past the float range never meets a float."""
    samples = math.ceil(T / dt / min(every, MAX_STEPS) - 1e-9) + 1
    if samples * n > MAX_STATE_CELLS:
        _fail(key, f"keeps {samples} samples of {n} vertices "
                   f"({samples * n * 8 / 2 ** 30:.3g} GiB), at most "
                   f"{MAX_STATE_CELLS} state cells")


def parse_scenario(text: str, base_dir: Path | str = ".") -> ScenarioConfig:
    """Parse and validate a scenario document; defaults dt=1e-3, tol=1e-10."""
    base_dir = Path(base_dir)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioError:
        raise
    except (ValueError, RecursionError) as exc:  # also too deep or too long a numeral
        raise ScenarioError(f"document: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        _fail("mode", f"expected one of {MODES}, got {mode!r}")
    _known_keys(doc, _MODE_KEYS[mode], "", f" in {mode} mode")

    T = _number(doc.get("T"), "T", default=1.0 if mode == "collapse" else None,
                positive=True)
    if T is None:
        _fail("T", "required")
    if mode == "collapse" and T != 1.0:
        _fail("T", f"collapse mode ends at T = 1, got {T}")
    dt = _number(doc.get("dt"), "dt", default=1e-3, positive=True)
    _check_steps(T, dt)
    tol = _number(doc.get("tol"), "tol", default=1e-10, positive=True)

    sample_every = doc.get("sample_every", 1)
    if not isinstance(sample_every, int) or isinstance(sample_every, bool) \
            or sample_every < 1:
        _fail("sample_every", "expected a positive integer")

    # the states kept must fit in memory; a path or a Z window is checked
    # before it is built, from its vertex count
    def fits(n):
        _check_state_cells(n, T, dt, sample_every, "sample_every")

    g = _build_scenario_graph(doc.get("graph"), base_dir, fits)
    fits(g.n_vertices)

    tokens = tuple(CONSTRAINT_KINDS)
    constraint = doc.get("constraint", "uniform")
    if not isinstance(constraint, str) or constraint not in tokens:
        _fail("constraint", f"expected one of {tokens}, got {constraint!r}")

    p = None
    if mode == "p-flow":
        p = _number(doc.get("p"), "p")
        if p is None or p < 2:
            _fail("p", "p-flow mode needs p >= 2")

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
        return solve_p_flow(g, cfg.p, cfg.constraint_set(), cfg.u0,
                            cfg.source, cfg.T, cfg.dt, tol=cfg.tol,
                            sample_every=every)
    if cfg.mode == "collapse":
        return solve_collapse(g, cfg.constraint_set(), cfg.u0, cfg.dt,
                              tol=cfg.tol, sample_every=every)[1]
    raise ScenarioError(f"mode: unknown mode {cfg.mode!r}")  # pragma: no cover


def _mass_path(path: Path) -> Path:
    return path.with_suffix(".mass.csv") if path.suffix == ".csv" \
        else Path(str(path) + ".mass.csv")


def _sample_texts(traj: Trajectory):
    """The header, then the `t,vertex,u` rows of each sample as one text.

    A vertex's cell is formatted again only where its 64-bit pattern differs
    from the sample before (so 0.0 and -0.0, or two NaN payloads, are told
    apart): on a growing pile most cells hold from one sample to the next.
    """
    yield "t,vertex,u\n"
    states = np.ascontiguousarray(traj.states, dtype=np.float64)
    bits = states.view(np.int64)
    n = len(traj.graph.vertices)
    # cells[j] is vertex j - 1's row after its time, `,v,x\n`; cells[0] stays
    # empty, so ts.join(cells) is the sample at time text ts
    heads = [""] + [f",{v}," for v in traj.graph.vertices]
    cells = [""] * (n + 1)
    times = traj.times.tolist()
    rows = max(1, _WRITE_BLOCK // n)
    for start in range(0, len(times), rows):
        block = bits[start:start + rows]
        changed = np.empty(block.shape, dtype=bool)
        changed[0] = block[0] != bits[start - 1] if start else True
        np.not_equal(block[1:], block[:-1], out=changed[1:])
        cols = (np.nonzero(changed)[1] + 1).tolist()
        vals = states[start:start + rows][changed].tolist()
        k = 0
        for t, end in zip(times[start:start + rows],
                          np.cumsum(changed.sum(axis=1)).tolist()):
            for j, x in zip(cols[k:end], vals[k:end]):
                cells[j] = f"{heads[j]}{x!r}\n"
            k = end
            yield repr(t).join(cells)


def write_trajectory(traj: Trajectory, path) -> Path:
    """Write `t,vertex,u` rows plus the sibling mass-residual CSV."""
    path = Path(path)
    path.write_text("".join(_sample_texts(traj)), encoding="utf-8")

    # each residual's text is formatted once per 64-bit pattern (0.0 and
    # -0.0, or two NaN payloads, apart): a run repeats many of them
    residuals = np.ascontiguousarray(traj.mass_residuals, dtype=np.float64)
    bits, at = np.unique(residuals.view(np.int64), return_inverse=True)
    texts = [f",{r!r}\n" for r in bits.view(np.float64).tolist()]
    rows = zip(traj.step_times.tolist(), at.tolist())
    _mass_path(path).write_text(
        "t,residual\n" + "".join([f"{t!r}{texts[k]}" for t, k in rows]),
        encoding="utf-8")
    return path


def _floats(path, cells, what, line_of) -> np.ndarray:
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        for k, s in enumerate(cells):
            try:
                float(s)
            except ValueError:
                raise ValueError(f"{path}: line {line_of(k)}: {what} {s!r} "
                                 "is not a number") from None
        raise


def _bad_row(path, lines, first_line):
    for k, text in enumerate(lines):
        if text.count(",") != 2:
            got = "a blank line" if not text.strip() else \
                f"{text.count(',') + 1} fields in {text[:80]!r}"
            raise ValueError(f"{path}: line {first_line + k}: expected "
                             f"t,vertex,u, got {got}")


def read_trajectory(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a trajectory CSV back as (times, vertices, states).

    The file is read in chunks of about 64 KiB of text, so memory stays a
    small multiple of the file size.  Every sample time needs exactly one cell
    per vertex; a row without three fields, a cell that is not a number, and
    a missing or duplicated cell raise ValueError naming the path and the
    line, time or vertex.  A header-only file gives states of shape (0, 0).
    """
    tkeys: dict[str, int] = {}  # time text -> id, in first-seen order
    vkeys: dict[str, int] = {}
    order: list[str] = []  # the labels of vkeys, by id
    at = 0  # the id of the vertex cell expected next
    # seeded so that a header-only file concatenates to empty arrays
    tids, vids, vals = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "t,vertex,u":
            raise ValueError(f"{path}: not a trajectory CSV (header {header[:80]!r})")
        first_line = 2
        while text := fh.read(1 << 16):
            text += fh.readline()
            if not text.endswith("\n"):
                text += "\n"
            n_lines = text.count("\n")
            # a well-formed line splits into the four cells t, vertex, u, "\n"
            cells = text.replace("\n", ",\n,").split(",")
            del cells[-1]
            if len(cells) != 4 * n_lines or cells[3::4].count("\n") != n_lines:
                # rows end at "\n" only: labels may hold other line breaks
                _bad_row(path, text[:-1].split("\n"), first_line)
            # a sample's rows share one time cell: look each run up once
            runs = [(tkeys.setdefault(s, len(tkeys)), len(list(run)))
                    for s, run in groupby(cells[0::4])]
            ids, counts = zip(*runs)
            tids.append(np.repeat(np.array(ids, dtype=np.int32), counts))
            # every sample repeats the vertex column: compare the chunk's
            # whole against the labels in order, and look cells up only
            # where it differs
            col, n = cells[1::4], len(order)
            if n and col == (order[at:] + order * (len(col) // n + 1))[:len(col)]:
                chunk = np.arange(at, at + len(col), dtype=np.int32) % n
            else:
                chunk = np.array([vkeys.setdefault(s, len(vkeys)) for s in col],
                                 dtype=np.int32)
                order = list(vkeys)
            at = (int(chunk[-1]) + 1) % len(order)
            vids.append(chunk)
            vals.append(_floats(path, cells[2::4], "value",
                                lambda k: first_line + k))
            first_line += n_lines
    tid, vid, val = np.concatenate(tids), np.concatenate(vids), np.concatenate(vals)
    del tids, vids, vals  # free the chunks before the states are built

    raw = _floats(path, list(tkeys), "time",
                  lambda k: 2 + int(np.argmax(tid == k)))
    # one time written two ways ("1.0", "1.00") is one sample
    by_value: dict[float, int] = {}
    merged = [by_value.setdefault(t, len(by_value)) for t in raw.tolist()]
    times, tid = np.array(list(by_value)), np.array(merged, dtype=np.intp)[tid]
    vertices = list(vkeys)
    shape = (len(times), len(vertices))
    if len(vid) == shape[0] * shape[1] \
            and (vid.reshape(shape) == np.arange(shape[1])).all() \
            and (tid.reshape(shape) == np.arange(shape[0])[:, None]).all():
        return times, vertices, val.reshape(shape)  # samples complete, in order

    filled = np.zeros(shape, dtype=bool)
    filled[tid, vid] = True
    if np.count_nonzero(filled) < len(tid):
        seen = np.zeros(len(tid), dtype=bool)
        seen[np.unique(tid * len(vertices) + vid, return_index=True)[1]] = True
        row = int(np.argmin(seen))
        raise ValueError(f"{path}: line {row + 2}: second cell for "
                         f"t={times[tid[row]].item()!r}, vertex {vertices[vid[row]]!r}")
    if not filled.all():
        i, j = np.argwhere(~filled)[0]
        raise ValueError(f"{path}: no cell for t={times[i].item()!r}, "
                         f"vertex {vertices[j]!r}")
    states = np.empty(filled.shape)
    states[tid, vid] = val
    return times, vertices, states
