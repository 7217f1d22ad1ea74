"""Every public name resolves: each module's `__all__`, the names the package
re-exports, and the (module, attribute) targets that the benchmark's span
tracer patches.  The tracer records a missing target instead of failing, so
without this check deleting a traced function would silently drop its span.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from graphsand import (ConstraintSet, SourceSchedule, build_path,
                       solve_collapse, solve_growth, solve_p_flow)
from graphsand import evolution, proximal

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsand"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _resolve(module: str, dotted: str):
    return functools.reduce(getattr, dotted.split("."), importlib.import_module(module))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"graphsand.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"graphsand.{name}.__all__ names undefined {missing}"


def _parameters(name):
    """(name, parameter names) of every callable in graphsand.<name>.__all__
    and of the public methods of its classes."""
    module = importlib.import_module(f"graphsand.{name}")
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        members = [(attr, obj)]
        if inspect.isclass(obj):
            members += [(f"{attr}.{m}", getattr(obj, m)) for m in dir(obj)
                        if not m.startswith("_")]
        for qualified, member in members:
            if not callable(member):
                continue
            try:
                params = inspect.signature(member).parameters
            except ValueError:  # a builtin without one, e.g. RuntimeError
                continue
            yield f"graphsand.{name}.{qualified}", params


@pytest.mark.parametrize("name", MODULES)
def test_no_model_parameter(name):
    # the p-energy comes from a ConstraintSet's bounds; a `model` argument
    # would be a second way to choose it
    for qualified, params in _parameters(name):
        assert "model" not in params, f"{qualified} takes a model parameter"


@pytest.mark.parametrize("name", MODULES)
def test_no_per_call_solver_knobs(name):
    # a run fixes its tolerance once and the iteration caps are module
    # constants; a per-call cap or warm flag would be a setting nothing uses
    for qualified, params in _parameters(name):
        for knob in ("max_iter", "warm"):
            assert knob not in params, f"{qualified} takes {knob}"


def test_package_reexports_public_names():
    import graphsand
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"graphsand.{node.module}")
        for alias in node.names:
            assert hasattr(graphsand, alias.asname or alias.name)
            assert alias.name in module.__all__, \
                f"graphsand re-exports {alias.name!r}, not in {node.module}.__all__"


def test_benchmark_span_targets_resolve():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert targets
    for module, attr, _span in targets:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def _count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_solvers_step_through_the_span_targets(monkeypatch):
    # the tracer wraps evolution.resolvent_p and DykstraProjector.project:
    # a solver that bound them another way, or skipped them on steps that
    # need them, would leave its steps out of the proximal spans
    g = build_path(5)
    K = ConstraintSet.from_kind(g, "uniform")
    f = SourceSchedule(g, ((0.0, 0.25, {"x3": 1.0}),))
    calls = _count_calls(monkeypatch, evolution, "resolvent_p")
    traj = solve_p_flow(g, 4.0, K, np.zeros(5), f, 0.5, 0.05)
    assert len(calls) == len(traj.step_times) == 10
    # growth and collapse project exactly the steps that are not taken as
    # blocks by DykstraProjector.hold: growth's while no multiplier is held
    # (free flight) or while one is and the source field holds for
    # _HELD_AFTER more steps, collapse's while the active list holds.  At
    # x3 = 1 the pile never binds; at x3 = 10 it binds on steps 3-5 and
    # step 6, the first after the source, still holds the multipliers, but
    # the field holds for 5 steps at most, too few for a block
    calls = _count_calls(monkeypatch, proximal.DykstraProjector, "project")
    held = []
    hold = proximal.DykstraProjector.hold

    def counted_hold(self, *args):
        bound = self.holds_multipliers()
        out = hold(self, *args)
        held.append((bound, out[0]))
        return out

    monkeypatch.setattr(proximal.DykstraProjector, "hold", counted_hold)
    traj = solve_growth(g, K, np.zeros(5), f, 0.5, 0.05)
    assert len(calls) + sum(k for _, k in held) == len(traj.step_times) == 10
    assert len(calls) == 0
    calls.clear()
    held.clear()
    steep = SourceSchedule(g, ((0.0, 0.25, {"x3": 10.0}),))
    traj = solve_growth(g, K, np.zeros(5), steep, 0.5, 0.05)
    assert len(calls) + sum(k for _, k in held) == len(traj.step_times) == 10
    assert len(calls) == 4
    calls.clear()
    held.clear()
    # under x3 = 10 for the whole run the pile binds on step 3, which
    # leaves the free block and is projected; a held block takes the steps
    # from the next one until the pile spreads, on step 9, which is
    # projected, and a second block takes the rest (71 of 80 steps, 51 of
    # 60, 151 of 160, 231 of 240)
    assert evolution._HELD_AFTER == 32
    for T, blocks, projected in ((4.0, [5, 71], 2), (3.0, [5, 51], 2),
                                 (8.0, [5, 151], 2), (12.0, [5, 231], 2)):
        steep = SourceSchedule(g, ((0.0, T, {"x3": 10.0}),))
        traj = solve_growth(g, K, np.zeros(5), steep, T, 0.05)
        assert len(calls) + sum(k for _, k in held) == len(traj.step_times)
        assert len(calls) == projected
        assert [k for bound, k in held if bound] == blocks
        calls.clear()
        held.clear()
    _, traj = solve_collapse(g, K, np.array([0.0, 3.0, 0.0, 1.0, 0.0]), 0.05)
    assert len(calls) + sum(k for _, k in held) == len(traj.step_times) == 14
    assert len(calls) == 1 and held == [(True, 13)]
