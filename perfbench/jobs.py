"""Run one job through the public CLI entry point, then check its output.

A job is `graphsand.cli.run_command(...)` plus reading its trajectory CSV
back with `graphsand.scenario.read_trajectory`; only that part is timed.
The checks afterwards are untimed.  Library functions are looked up on
their modules at call time, so the tracing wrappers apply.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphsand.cli as gs_cli
import graphsand.scenario as gs_scenario
from graphsand.proximal import is_stable

TRAJECTORY_COMMANDS = ("simulate", "collapse")
RESIDUAL_BOUND = 1e-8   # per-step mass residual, as in the library's tests
STABLE_TOL = 1e-8
MASS_RTOL = 1e-8
GOLDEN_TOL = 1e-2       # O(dt) collapse error, as in acceptance criterion 4


@dataclass
class Sample:
    job: str
    seconds: float
    ok: bool
    reason: str = ""
    csv_bytes: int = 0


class CheckFailed(Exception):
    pass


def _argv(job, scenario_path: Path, out: Path) -> list[str]:
    argv = [job.command, str(scenario_path), *job.args]
    if job.command != "transport-check":
        argv += ["--output", str(out)]
    return argv


def _mass_path(out: Path) -> Path:
    return out.with_suffix(".mass.csv")


def run_job(job, scenario_path: Path, workdir: Path, tracer=None) -> Sample:
    """Run, time and check one job; never raises for a failing job."""
    out = Path(workdir) / f"{job.name}.csv"
    for stale in (out, _mass_path(out)):
        stale.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, readback, error = None, None, None
    root = tracer.job() if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with root, redirect_stdout(stdout), redirect_stderr(stderr):
            code = gs_cli.run_command(_argv(job, scenario_path, out))
            if code == 0 and job.command in TRAJECTORY_COMMANDS:
                readback = gs_scenario.read_trajectory(out)
    except Exception as exc:  # a raising job is a failed job, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None:
        try:
            check(job, scenario_path, out, code, stdout.getvalue(),
                  stderr.getvalue(), readback, seconds)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # unreadable output is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
    size = sum(p.stat().st_size for p in (out, _mass_path(out)) if p.exists())
    return Sample(job.name, seconds, error is None, error or "", size)


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check(job, scenario_path, out, code, stdout, stderr, readback, seconds):
    """Raise CheckFailed unless the job's outputs are right."""
    _require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
    budget = job.scenario.get("runtime_budget_s", math.inf)
    _require(seconds <= budget, f"took {seconds:.3f} s, budget {budget} s")
    if job.command in TRAJECTORY_COMMANDS:
        _check_trajectory(job, scenario_path, out, stdout, readback)
    elif job.command == "converge-p":
        _check_table(job, out)
    elif job.command == "transport-check":
        _require("potential: verified" in stdout.splitlines(),
                 f"no 'potential: verified' in {stdout.strip()[-200:]!r}")


def _check_trajectory(job, scenario_path, out, stdout, readback):
    times, vertices, states = readback
    cfg = gs_scenario.load_scenario(scenario_path)
    _require(vertices == job.expect["vertices"], "CSV vertex set differs")

    lines = _mass_path(out).read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "t,residual", "bad mass CSV header")
    residuals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    steps = len(residuals)
    _require(steps >= 1, "no integrator steps")
    worst = float(np.max(np.abs(residuals)))
    _require(worst <= RESIDUAL_BOUND, f"mass residual {worst:.3e}")

    every = cfg.sample_every
    samples = len(range(0, steps + 1, every)) + (1 if steps % every else 0)
    _require(len(times) == samples,
             f"{len(times)} samples, expected {samples} for {steps} steps")
    _require(abs(times[-1] - (1.0 if cfg.mode == "collapse" else cfg.T)) <= 1e-9,
             f"last sample at t={times[-1]}")

    final = states[-1]
    if cfg.mode in ("growth", "collapse"):
        _require(is_stable(final, cfg.constraint_set(), STABLE_TOL),
                 "final state is not stable")
    if cfg.mode == "collapse":
        u_inf = _u_infinity(stdout)
        _require(np.array_equal(u_inf, final), "u_infinity differs from the CSV")
        deg = cfg.graph.degrees
        m0, m1 = float(deg @ cfg.u0), float(deg @ u_inf)
        _require(abs(m1 - m0) <= MASS_RTOL * max(1.0, abs(m0)),
                 f"nu-mass {m1!r} differs from the datum's {m0!r}")
        golden = job.expect.get("golden")
        if golden is not None:
            err = float(np.max(np.abs(u_inf - np.array(golden))))
            _require(err <= GOLDEN_TOL, f"golden error {err:.3e}")


def _u_infinity(stdout: str) -> np.ndarray:
    for line in stdout.splitlines():
        if line.startswith("u_infinity = ("):
            body = line[len("u_infinity = ("):].rstrip(")")
            return np.array([float(x) for x in body.split(",")])
    raise CheckFailed("no u_infinity line")


def _check_table(job, out):
    lines = out.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "p,sup_error", "bad converge-p header")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    _require([p for p, _ in rows] == job.expect["p_list"],
             f"rows for p={[p for p, _ in rows]}")
    _require(all(math.isfinite(err) for _, err in rows), "non-finite error")
