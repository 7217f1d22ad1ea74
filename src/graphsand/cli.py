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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evolution import TruncationError, converge_p_experiment
from .graph import field_values, load_graph
from .proximal import CONSTRAINT_KINDS, ConstraintSet, ProjectionError, \
    ResolventError, project
from .scenario import ScenarioError, load_scenario, run_scenario, write_trajectory
from .transport import TransportInstance, kantorovich_pairing, ot_cost_oracle, \
    verify_potential

__all__ = ["run_command", "main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures to exit code 1
        raise _CliError(message)


def _read_field_file(g, path):
    vals = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ScenarioError(f"{path}:{lineno}: expected '<vertex> <value>'")
        vals[parts[0]] = float(parts[1])
    return field_values(g, vals)


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
    model = cfg.constraint_set().model()
    horizon = args.T if args.T is not None else cfg.T
    table = converge_p_experiment(cfg.graph, model, cfg.u0, cfg.source,
                                  p_list, horizon, cfg.dt, tol=cfg.tol)
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
    K = ConstraintSet.from_kind(g, args.kind)
    u = project(g, K, z)
    lines = [f"{v} {repr(float(x))}" for v, x in zip(g.vertices, u)]
    text = "\n".join(lines) + "\n"
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
    tol = args.tol if args.tol is not None else 10.0 * cfg.dt
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
                      choices=[spec.token for spec in CONSTRAINT_KINDS.values()])
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


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
