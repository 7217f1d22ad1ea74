"""Command-line interface.

Subcommands
-----------
simulate <scenario>          run a scenario in its declared mode, write CSV
collapse <scenario>          run a collapse scenario, report the final state
converge-p <scenario> --p-list 8,16,32,64
                             p-flow vs growth-limit error table (CSV p,sup_error)
project <graph> <field> --kind uniform|inv-sqrt-w|inv-w
                             project a vertex field onto a stable set
transport-check <scenario> --t <time>
                             duality check of the state at a given time

Exit codes: 0 success, 1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evolution import TruncationError, converge_p_experiment
from .graph import _read_records, field_values, load_graph
from .proximal import CONSTRAINT_KINDS, ConstraintSet, ProjectionError, \
    ResolventError, project
from .scenario import ScenarioError, _check_state_cells, load_scenario, \
    run_scenario, write_trajectory
from .transport import TransportInstance, kantorovich_pairing, ot_cost_oracle, \
    verify_potential

__all__ = ["run_command", "main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures to exit code 1
        raise _CliError(message)


def _read_field_file(g, path) -> np.ndarray:
    """The field of a `<vertex> <value>` line file, zero where it names none."""
    vals = {}

    def record(vertex, value):
        if vertex in vals or vertex not in g.index:
            fault = "duplicate" if vertex in vals else "unknown"
            raise ValueError(f"{fault} vertex {vertex!r}")
        vals[vertex] = value

    _read_records(Path(path).read_text(encoding="utf-8"), f"{path}:",
                  "<vertex> <value>", record)
    return field_values(g, vals)


def _number_option(option: str, value: float, least: float | None = None) -> float:
    """value if it is finite and positive (or at least `least`); argparse
    reads nan and inf as floats, so options are checked here."""
    ok = value > 0 if least is None else value >= least
    if not (ok and math.isfinite(value)):
        need = "a positive finite number" if least is None \
            else f"a finite number >= {least:g}"
        raise ScenarioError(f"{option}: must be {need}, got {value!r}")
    return value


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.scenario)
    traj = run_scenario(cfg)
    out = args.output or cfg.output or (Path(args.scenario).stem + ".csv")
    write_trajectory(traj, out)
    # a stable collapse datum takes no steps, so there may be no residuals
    residual = np.max(np.abs(traj.mass_residuals), initial=0.0)
    print(f"mode={cfg.mode} steps={len(traj.step_times)} "
          f"max_mass_residual={residual:.3e} "
          f"events={len(traj.events)}")
    print(f"wrote {out}")
    return 0


def _cmd_collapse(args) -> int:
    cfg = load_scenario(args.scenario)
    if cfg.mode != "collapse":
        raise ScenarioError("mode: collapse command needs a collapse scenario")
    traj = run_scenario(cfg)
    if args.output or cfg.output:
        write_trajectory(traj, args.output or cfg.output)
    formatted = ", ".join(repr(float(x)) for x in traj.final_state())
    print(f"u_infinity = ({formatted})")
    return 0


def _cmd_converge_p(args) -> int:
    cfg = load_scenario(args.scenario)
    try:
        p_list = [float(tok) for tok in args.p_list.split(",") if tok]
    except ValueError:
        raise ScenarioError(f"--p-list: not a number list: {args.p_list!r}")
    if not p_list:
        raise ScenarioError("--p-list: empty")
    p_list = [_number_option("--p-list", p, least=2.0) for p in p_list]
    horizon = cfg.T if args.T is None else _number_option("--T", args.T)
    table = converge_p_experiment(cfg.graph, cfg.constraint_set(), cfg.u0,
                                  cfg.source, p_list, horizon, cfg.dt,
                                  tol=cfg.tol)
    lines = ["p,sup_error"] + [f"{repr(p)},{repr(err)}" for p, err in table]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    print(text, end="")
    return 0


def _cmd_project(args) -> int:
    g = load_graph(args.graph)
    z = _read_field_file(g, args.field)
    u = project(g, ConstraintSet.from_kind(g, args.kind), z)
    text = "".join(f"{v} {float(x)!r}\n" for v, x in zip(g.vertices, u))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_transport_check(args) -> int:
    cfg = load_scenario(args.scenario)
    if cfg.mode != "growth":
        raise ScenarioError("mode: transport-check needs a growth scenario")
    if not 0 < args.t <= cfg.T:
        raise ScenarioError(f"--t: must lie in (0, {cfg.T}]")
    # the rate below needs the step just before t, so keep every step
    _check_state_cells(cfg.graph.n_vertices, cfg.T, cfg.dt, 1, "transport-check")
    traj = run_scenario(replace(cfg, sample_every=1))
    k = int(np.searchsorted(traj.times, args.t - 1e-12))
    k = max(1, min(k, traj.n_samples - 1))
    h = traj.times[k] - traj.times[k - 1]
    rate = (traj.states[k] - traj.states[k - 1]) / h
    rate = np.maximum(rate, 0.0)
    u = traj.states[k]
    f_now = cfg.source(traj.times[k - 1])
    metric = "graph" if cfg.constraint == "uniform" \
        else cfg.constraint_set().bounds
    instance = TransportInstance(cfg.graph, rate, f_now, metric)
    tol = 10.0 * cfg.dt if args.tol is None else _number_option("--tol", args.tol)
    pairing = kantorovich_pairing(cfg.graph, u, rate, f_now)
    cost = ot_cost_oracle(instance)
    ok = verify_potential(instance, u, tol=tol)
    print(f"t={float(traj.times[k])} pairing={pairing!r} cost={cost!r} "
          f"gap={cost - pairing!r}")
    print("potential: " + ("verified" if ok else "NOT optimal"))
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphsand", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario in its declared mode")
    sim.add_argument("scenario")
    sim.add_argument("--output", help="override the scenario output path")
    sim.set_defaults(run=_cmd_simulate)

    col = sub.add_parser("collapse", help="run the collapse dynamics")
    col.add_argument("scenario")
    col.add_argument("--output")
    col.set_defaults(run=_cmd_collapse)

    conv = sub.add_parser("converge-p", help="p-flow convergence experiment")
    conv.add_argument("scenario")
    conv.add_argument("--p-list", default="8,16,32,64",
                      help="comma-separated increasing p values")
    conv.add_argument("--T", type=float, help="override the scenario horizon")
    conv.add_argument("--output")
    conv.set_defaults(run=_cmd_converge_p)

    proj = sub.add_parser("project", help="project a field onto a stable set")
    proj.add_argument("graph", help="edge-list file")
    proj.add_argument("field", help="field file: one '<vertex> <value>' per line")
    proj.add_argument("--kind", default="uniform",
                      choices=tuple(CONSTRAINT_KINDS))
    proj.add_argument("--output")
    proj.set_defaults(run=_cmd_project)

    tc = sub.add_parser("transport-check", help="duality check at a given time")
    tc.add_argument("scenario")
    tc.add_argument("--t", type=float, required=True)
    tc.add_argument("--tol", type=float)
    tc.set_defaults(run=_cmd_transport_check)
    return parser


_PARSER = _build_parser()


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ScenarioError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProjectionError, ResolventError, TruncationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the last resort: a run too large to hold
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
