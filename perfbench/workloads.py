"""Seeded scenario generators for the four benchmark workloads.

Each workload is a fixed job mix: graph sizes, horizons, step sizes and the
order of the jobs never depend on the seed, so every seed costs about the
same.  The seed only draws the data: edge weights, source positions and
strengths, and the shape of the unstable collapse data.  All data is placed
by vertex label, never by index (vertex order is lexicographic, so index
n//2 of a truncated Z window is not the origin).

This module uses only numpy and json; it never imports graphsand, so a
change to the library cannot change the generated files.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("growth", "collapse", "pflow", "transport")

# Generous per-job wall budget: a job that runs this long counts as failed.
BUDGET_S = 10.0

# The percentile of job times reported as job_s_tail.  Each lies inside the
# mix's top tier of jobs of about equal cost, at a fixed rank, so it names
# the same jobs however many mixes a run gets through.
TAIL_Q = {"growth": 85, "collapse": 80, "pflow": 90, "transport": 85}


@dataclass(frozen=True)
class Job:
    """One CLI invocation on one generated scenario file.

    `args` follow the scenario path on the command line (the benchmark adds
    `--output`).  `expect` holds what the output check needs that is not in
    the scenario file itself: the sorted vertex labels, the p list of a
    converge-p job, or a golden final state.
    """

    name: str
    command: str
    scenario: dict
    args: tuple = ()
    expect: dict = field(default_factory=dict)

    def write(self, directory: Path) -> Path:
        path = Path(directory) / f"{self.name}.json"
        path.write_text(json.dumps(self.scenario) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------- graphs
#
# Each builder returns (graph node, labels, edges) where edges are
# (label, label, weight) triples; the edges are only used here, to measure
# slopes of generated data.

def _z_window(radius: int):
    labels = [str(k) for k in range(-radius, radius + 1)]
    edges = [(str(k), str(k + 1), 1.0) for k in range(-radius, radius)]
    return {"kind": "truncated_z", "radius": radius}, labels, edges


def _path(n: int, weights=None):
    labels = [f"x{k}" for k in range(1, n + 1)]
    ws = [1.0] * (n - 1) if weights is None else list(weights)
    edges = [(f"x{k}", f"x{k + 1}", w) for k, w in enumerate(ws, 1)]
    node = {"kind": "path", "n": n}
    if weights is not None:
        node["weights"] = ws
    return node, labels, edges


def _star(weights):
    labels = [f"x{k}" for k in range(len(weights) + 1)]
    edges = [("x0", "x1", weights[0])]
    edges += [("x1", f"x{k}", w) for k, w in enumerate(weights[1:], 2)]
    return {"kind": "star", "weights": list(weights)}, labels, edges


def _grid_label(r: int, c: int) -> str:
    return f"r{r:02d}c{c:02d}"


def _grid(m: int, rng, w_lo=0.5, w_hi=2.0):
    labels = [_grid_label(r, c) for r in range(m) for c in range(m)]
    edges = []
    for r in range(m):
        for c in range(m):
            if c + 1 < m:
                edges.append((_grid_label(r, c), _grid_label(r, c + 1),
                              _weight(rng, w_lo, w_hi)))
            if r + 1 < m:
                edges.append((_grid_label(r, c), _grid_label(r + 1, c),
                              _weight(rng, w_lo, w_hi)))
    node = {"kind": "edges", "edges": [list(e) for e in edges]}
    return node, labels, edges


def _weight(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _bound(kind: str, w: float) -> float:
    return {"uniform": 1.0, "inv-sqrt-w": 1.0 / math.sqrt(w),
            "inv-w": 1.0 / w}[kind]


def _max_relative_slope(values: dict, edges, kind: str) -> float:
    return max(abs(values.get(b, 0.0) - values.get(a, 0.0)) / _bound(kind, w)
               for a, b, w in edges)


# ------------------------------------------------------------- scenarios

def _scenario(graph, constraint, mode, T, dt, u0=None, source=(),
              sample_every=1, p=None) -> dict:
    doc = {"graph": graph, "constraint": constraint, "mode": mode,
           "u0": u0 or {}, "source": list(source), "T": T, "dt": dt}
    if p is not None:
        doc["p"] = p
    doc["sample_every"] = sample_every
    doc["runtime_budget_s"] = BUDGET_S
    return doc


def _point_sources(rng, labels, count, T, lo=0.8, hi=1.25) -> list:
    picks = rng.choice(len(labels), size=count, replace=False)
    values = {labels[k]: round(float(rng.uniform(lo, hi)), 3)
              for k in sorted(picks)}
    return [{"start": 0.0, "end": T, "values": values}]


def _z_sources(rng, radius, count, T) -> list:
    """Point sources near the origin of a Z window, sized so that the pile
    stays clear of the guard band for the whole horizon.

    A pile of nu-mass M on Z with slope 1 has support radius at most
    sqrt(M / 2); the sources sit within radius/4 of the origin, so the
    support stays within radius/4 + sqrt(M / 2) + 1 < radius - 2.
    """
    reach = radius // 4
    near = [str(k) for k in range(-reach, reach + 1)]
    source = _point_sources(rng, near, count, T)
    mass = 2.0 * T * sum(source[0]["values"].values())
    if reach + math.sqrt(mass / 2.0) + 1.0 >= radius - 2:
        raise ValueError(f"Z window radius {radius} too small for mass {mass}")
    return source


def _zigzag_profile(rng, labels, edges, kind, share, half=8) -> dict:
    """A datum on a path whose every edge gap is +-share of its slope bound,
    the sign flipping every `half` edges; the seed draws the phase.  All
    edges sit at the same relative slope and the number of kinks is fixed,
    so the resolvent's Newton work depends little on the seed."""
    phase = int(rng.integers(0, 2 * half))
    vals = [0.0]
    for k, (_, _, w) in enumerate(edges):
        sign = 1.0 if (k + phase) // half % 2 == 0 else -1.0
        vals.append(vals[-1] + sign * share * _bound(kind, w))
    low = min(vals)
    return {v: round(x - low, 4) for v, x in zip(labels, vals)}


def _unstable_datum(rng, labels, edges, kind, target_l) -> dict:
    """Nonnegative random data on `labels` scaled to maximal relative slope
    target_l (up to the rounding of the written values)."""
    raw = rng.uniform(0.0, 1.0, size=len(labels))
    values = {v: float(x) for v, x in zip(labels, raw)}
    scale = target_l / _max_relative_slope(values, edges, kind)
    return {v: round(x * scale, 4) for v, x in values.items()}


# ------------------------------------------------------------- workloads
#
# Every mix has a core of jobs of about the same cost, where the median job
# falls, and a top tier of about a quarter of the jobs that holds the tail
# percentile (at least ten samples beyond it), so neither figure sits on a
# boundary between jobs of different cost.

def _growth_jobs(rng) -> list[Job]:
    jobs = []

    def add(tag, graph, labels, constraint, T, source, sample_every):
        doc = _scenario(graph, constraint, "growth", T, 1e-3, source=source,
                        sample_every=sample_every)
        jobs.append(Job(f"growth-{len(jobs):02d}-{tag}", "simulate", doc,
                        expect={"vertices": sorted(labels)}))

    # core: Z windows, stars and weighted paths; sample_every 1 gives the
    # CSV write and read a real share of the job
    for radius, T, count, every in ((20, 1.2, 1, 1), (30, 0.8, 2, 1),
                                    (40, 2.0, 3, 10), (25, 1.0, 2, 1),
                                    (35, 2.0, 2, 10)):
        graph, labels, _ = _z_window(radius)
        add(f"z{radius}", graph, labels, "uniform", T,
            _z_sources(rng, radius, count, T), every)
    for leaves, kind, T in ((6, "uniform", 3.0), (10, "inv-sqrt-w", 2.5)):
        graph, labels, _ = _star([_weight(rng, 0.5, 2.0) for _ in range(leaves)])
        add(f"star{leaves}", graph, labels, kind, T,
            [{"start": 0.0, "end": T, "values": {"x0": 1.0}}], 1)
    for n, kind, T in ((40, "inv-sqrt-w", 1.0), (60, "inv-w", 0.8)):
        graph, labels, _ = _path(n, [_weight(rng, 0.5, 4.0) for _ in range(n - 1)])
        add(f"path{n}", graph, labels, kind, T, _point_sources(rng, labels, 2, T), 1)
    # grids: the 16x16 one is core, the long sampled ones carry the memory
    for m, kind, T in ((16, "uniform", 0.8), (24, "inv-sqrt-w", 1.0),
                       (32, "uniform", 0.5), (20, "inv-w", 1.4)):
        graph, labels, _ = _grid(m, rng)
        add(f"grid{m}", graph, labels, kind, T, _point_sources(rng, labels, 3, T), 10)
    return jobs


def _collapse_jobs(rng) -> list[Job]:
    jobs = []

    def add(tag, graph, labels, edges, constraint, support, target_l):
        u0 = _unstable_datum(rng, support, edges, constraint, target_l)
        doc = _scenario(graph, constraint, "collapse", 1.0, 1e-4, u0=u0,
                        sample_every=1000)
        jobs.append(Job(f"collapse-{len(jobs):02d}-{tag}", "collapse", doc,
                        expect={"vertices": sorted(labels)}))

    # the shipped four-vertex golden: u_infinity = (0.8, 1.8, 0.8, 1.0)
    graph, labels, _ = _path(4)
    doc = _scenario(graph, "uniform", "collapse", 1.0, 1e-4,
                    u0={"x2": 3.0, "x4": 1.0}, sample_every=1000)
    jobs.append(Job("collapse-00-p4golden", "collapse", doc,
                    expect={"vertices": sorted(labels),
                            "golden": [0.8, 1.8, 0.8, 1.0]}))

    # The Dykstra work of random data varies several-fold from one draw to
    # the next.  Where the per-step cost of the graph dominates it, the job
    # costs about the same for every seed: the core (paths, small Z windows,
    # 4x4 grids) holds the median, and the top tier of three long Z windows
    # with narrow random support holds the tail percentile.
    graph, labels, edges = _path(12)
    add("path12", graph, labels, edges, "uniform", labels, 2.5)
    for m, kind, target_l in ((4, "uniform", 3.0), (4, "inv-sqrt-w", 3.2)):
        graph, labels, edges = _grid(m, rng)
        add(f"grid{m}", graph, labels, edges, kind, labels, target_l)
    for radius, width, target_l in ((20, 3, 3.0), (30, 4, 2.5), (90, 3, 3.0),
                                    (105, 3, 2.8), (120, 3, 3.0)):
        graph, labels, edges = _z_window(radius)
        support = [str(k) for k in range(-width, width + 1)]
        add(f"z{radius}", graph, labels, edges, "uniform", support, target_l)
    return jobs


def _pflow_jobs(rng) -> list[Job]:
    jobs = []
    for n, p, kind, T in ((101, 4.0, "uniform", 0.16), (151, 64.0, "uniform", 0.08),
                          (201, 16.0, "inv-sqrt-w", 0.05),
                          (201, 64.0, "inv-sqrt-w", 0.05),
                          (301, 4.0, "inv-sqrt-w", 0.025),
                          (401, 16.0, "uniform", 0.04),
                          (351, 64.0, "inv-sqrt-w", 0.05)):
        weights = None if kind == "uniform" else \
            [_weight(rng, 0.5, 2.0) for _ in range(n - 1)]
        graph, labels, edges = _path(n, weights)
        u0 = _zigzag_profile(rng, labels, edges, kind, share=1.0)
        doc = _scenario(graph, kind, "p-flow", T, 1e-3, u0=u0,
                        source=_point_sources(rng, labels, 3, T),
                        sample_every=10, p=p)
        jobs.append(Job(f"pflow-{len(jobs):02d}-n{n}p{int(p)}", "simulate", doc,
                        expect={"vertices": sorted(labels)}))
    for n, kind, T in ((151, "uniform", 0.06), (201, "inv-sqrt-w", 0.05)):
        weights = None if kind == "uniform" else \
            [_weight(rng, 0.5, 2.0) for _ in range(n - 1)]
        graph, labels, edges = _path(n, weights)
        u0 = _zigzag_profile(rng, labels, edges, kind, share=0.8)
        doc = _scenario(graph, kind, "growth", T, 1e-3, u0=u0,
                        source=_point_sources(rng, labels, 2, T))
        jobs.append(Job(f"pflow-{len(jobs):02d}-conv{n}", "converge-p", doc,
                        args=("--p-list", "4,16,64"),
                        expect={"p_list": [4.0, 16.0, 64.0]}))
    return jobs


def _transport_jobs(rng) -> list[Job]:
    jobs = []

    def add(tag, graph, constraint, T, source):
        doc = _scenario(graph, constraint, "growth", T, 1e-2, source=source)
        jobs.append(Job(f"transport-{len(jobs):02d}-{tag}", "transport-check",
                        doc, args=("--t", repr(T))))

    # the Z windows cost about what the 6x6 grids cost: five core jobs of
    # equal cost hold the median, the two 8x8 grids the tail
    for radius, count in ((52, 3), (55, 3), (58, 3)):
        graph, _, _ = _z_window(radius)
        add(f"z{radius}", graph, "uniform", 3.0, _z_sources(rng, radius, count, 3.0))
    for m in (6, 6, 8, 8):
        graph, labels, _ = _grid(m, rng)
        add(f"grid{m}", graph, "inv-sqrt-w", 1.5, _point_sources(rng, labels, 3, 1.5))
    return jobs


_BUILDERS = {"growth": _growth_jobs, "collapse": _collapse_jobs,
             "pflow": _pflow_jobs, "transport": _transport_jobs}

# Each mix ends with tiny copies of other workloads' warm-up jobs, a few ms
# each, so that every per-layer time is measured on every workload instead
# of reading a constant 0 where a mix would not call the layer.
_SIDE_JOBS = {"growth": ("pflow", "transport"), "collapse": ("pflow", "transport"),
              "pflow": ("transport",), "transport": ("pflow",)}


def generate(workload: str, seed: int) -> list[Job]:
    """The job mix of `workload`, with data drawn from `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    jobs = _BUILDERS[workload](rng)
    for other in _SIDE_JOBS[workload]:
        side = warmup(other)
        jobs.append(Job(f"{workload}-{len(jobs):02d}-side-{other}", side.command,
                        side.scenario, side.args, side.expect))
    return jobs


def warmup(workload: str) -> Job:
    """A tiny job on the workload's code path, run once during set-up."""
    graph, labels, edges = _path(8)
    if workload == "collapse":
        doc = _scenario(graph, "uniform", "collapse", 1.0, 1e-3,
                        u0={"x3": 2.5}, sample_every=100)
        return Job("warmup", "collapse", doc, expect={"vertices": sorted(labels)})
    source = [{"start": 0.0, "end": 0.05, "values": {"x4": 1.0}}]
    if workload == "pflow":
        doc = _scenario(graph, "uniform", "p-flow", 0.05, 1e-3, source=source,
                        p=8.0)
        return Job("warmup", "simulate", doc, expect={"vertices": sorted(labels)})
    doc = _scenario(graph, "uniform", "growth", 0.05, 1e-3, source=source)
    if workload == "transport":
        return Job("warmup", "transport-check", doc, args=("--t", "0.05"))
    return Job("warmup", "simulate", doc, expect={"vertices": sorted(labels)})
