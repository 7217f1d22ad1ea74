"""Per-layer spans recorded from outside the library.

The traced run replaces public graphsand functions with thin wrappers that
time each call.  Every name is patched where its caller looks it up (a
`from .x import f` binding is a separate name from `x.f`), and the
originals are put back when the `installed` block ends.  Spans are only
recorded inside a job's root span, so the untimed output checks, which call
the same library functions, never show up.

Spans are aggregated as they close rather than kept one by one: the
projector alone opens one span per integrator step, thousands per job.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("graphsand.cli", "run_command", "cli.run_command"),
    ("graphsand.cli", "load_scenario", "scenario.parse"),
    ("graphsand.cli", "run_scenario", "scenario.run"),
    ("graphsand.cli", "write_trajectory", "scenario.write"),
    ("graphsand.scenario", "read_trajectory", "scenario.read"),
    ("graphsand.scenario", "build_graph", "graph.build"),
    ("graphsand.scenario", "build_path", "graph.build"),
    ("graphsand.scenario", "build_star", "graph.build"),
    ("graphsand.scenario", "build_truncated_z", "graph.build"),
    ("graphsand.scenario", "load_graph", "graph.build"),
    ("graphsand.scenario", "solve_growth", "evolution.solve"),
    ("graphsand.scenario", "solve_collapse", "evolution.solve"),
    ("graphsand.scenario", "solve_p_flow", "evolution.solve"),
    # transport-check imports solve_growth at call time; converge-p's
    # experiment calls both solvers through its own module globals
    ("graphsand.evolution", "solve_growth", "evolution.solve"),
    ("graphsand.evolution", "solve_p_flow", "evolution.solve"),
    ("graphsand.cli", "converge_p_experiment", "evolution.converge_p"),
    ("graphsand.proximal", "DykstraProjector.project", "proximal.project"),
    ("graphsand.evolution", "resolvent_p", "proximal.resolvent"),
    ("graphsand.cli", "kantorovich_pairing", "transport.pairing"),
    ("graphsand.cli", "verify_potential", "transport.verify"),
    ("graphsand.cli", "ot_cost_oracle", "transport.oracle"),
    ("graphsand.transport", "ot_cost_oracle", "transport.oracle"),
    ("graphsand.transport", "is_lipschitz_wrt", "transport.lipschitz"),
)

ROOT = "job"


def _count_solve(tracer, result, args):
    traj = result[1] if isinstance(result, tuple) else result
    tracer.counts["evolution.steps"] += len(traj.step_times)
    tracer.counts["evolution.events"] += len(traj.events)


def _count_oracle(tracer, result, args):
    instance = args[0]
    tracer.counts["transport.oracle_support"] += \
        int((instance.f0 > 0).sum() + (instance.f1 > 0).sum())


ANNOTATIONS = {"evolution.solve": _count_solve,
               "transport.oracle": _count_oracle}


class Tracer:
    """Aggregated span times: calls, inclusive and self seconds per name.

    `outer[layer]` sums the inclusive time of spans with no ancestor in the
    same layer, so nested solver calls are not counted twice.
    """

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.outer = defaultdict(float)
        self.counts = Counter()
        self.jobs = 0
        self.missing = []
        self._stack = []  # [name, layer, seconds covered by child spans]

    def _close(self, frame, seconds):
        name, layer, child = frame
        self.calls[name] += 1
        self.inclusive[name] += seconds
        self.self_s[name] += seconds - child
        if self._stack:
            self._stack[-1][2] += seconds
        if all(f[1] != layer for f in self._stack):
            self.outer[layer] += seconds

    @contextmanager
    def job(self):
        """Root span of one job; spans open only inside one."""
        frame = [ROOT, ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            self._close(frame, seconds)
            self.jobs += 1

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        annotate = ANNOTATIONS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                self._close(frame, seconds)
            if annotate is not None:
                annotate(self, result, args)
            return result

        return wrapper


def _resolve(module, attribute):
    owner = importlib.import_module(module)
    *parents, attr = attribute.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a wrapper; restore the originals on exit.

    A target the library no longer has is skipped and listed in
    `tracer.missing`, so the benchmark still runs after a refactor moves
    a name.
    """
    saved = []
    try:
        for module, attribute, name in TARGETS:
            try:
                owner, attr = _resolve(module, attribute)
                original = getattr(owner, attr)
            except AttributeError:
                if f"{module}.{attribute}" not in tracer.missing:
                    tracer.missing.append(f"{module}.{attribute}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, csv_bytes: float) -> dict:
    """Per-job layer figures, as {name: {"value", "unit"}}, from a tracer
    that recorded `tracer.jobs` jobs.

    Times in seconds are self seconds per job, except `evolution.solve_s`,
    which is the inclusive solver time per job.  `csv_bytes` is the mean
    output size per traced job.
    """
    jobs = max(tracer.jobs, 1)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per_call(name, scale):
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    steps = counts["evolution.steps"]
    solve_s = tracer.outer["evolution"]
    oracles = calls["transport.oracle"]
    layer_self = sum(s for name, s in self_s.items() if name != ROOT)
    job_s = tracer.inclusive[ROOT]
    rows = (
        ("proximal.project_calls", calls["proximal.project"] / jobs, "count"),
        ("proximal.project_s", self_s["proximal.project"] / jobs, "s"),
        ("proximal.project_us", per_call("proximal.project", 1e6), "us"),
        ("proximal.resolvent_calls", calls["proximal.resolvent"] / jobs, "count"),
        ("proximal.resolvent_s", self_s["proximal.resolvent"] / jobs, "s"),
        ("proximal.resolvent_ms", per_call("proximal.resolvent", 1e3), "ms"),
        ("evolution.solve_s", solve_s / jobs, "s"),
        ("evolution.self_s", (self_s["evolution.solve"]
                              + self_s["evolution.converge_p"]) / jobs, "s"),
        ("evolution.steps", steps / jobs, "count"),
        ("evolution.us_per_step", solve_s / steps * 1e6 if steps else 0.0, "us"),
        ("evolution.events", counts["evolution.events"] / jobs, "count"),
        ("scenario.parse_s", self_s["scenario.parse"] / jobs, "s"),
        ("scenario.run_s", self_s["scenario.run"] / jobs, "s"),
        ("scenario.write_s", self_s["scenario.write"] / jobs, "s"),
        ("scenario.read_s", self_s["scenario.read"] / jobs, "s"),
        ("scenario.csv_mb", csv_bytes / 1e6, "MB"),
        ("graph.build_s", self_s["graph.build"] / jobs, "s"),
        ("transport.lipschitz_calls", calls["transport.lipschitz"] / jobs, "count"),
        ("transport.lipschitz_s", self_s["transport.lipschitz"] / jobs, "s"),
        ("transport.oracle_calls", oracles / jobs, "count"),
        ("transport.oracle_s", self_s["transport.oracle"] / jobs, "s"),
        ("transport.oracle_support",
         counts["transport.oracle_support"] / oracles if oracles else 0.0, "count"),
        ("transport.self_s", (self_s["transport.verify"]
                              + self_s["transport.pairing"]) / jobs, "s"),
        ("cli.self_s", self_s["cli.run_command"] / jobs, "s"),
        ("trace.unattributed_s", self_s[ROOT] / jobs, "s"),
        ("trace.coverage", layer_self / job_s if job_s else 0.0, "ratio"),
    )
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}
