import ast
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from graphsand import (SourceSchedule, parse_scenario, read_trajectory,
                       solve_growth, write_trajectory)
from graphsand.cli import run_command
from graphsand import scenario as scenario_module
from graphsand.scenario import ScenarioError, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "graph": {"kind": "path", "n": 4},
    "mode": "growth",
    "u0": {},
    "source": [{"start": 0.0, "end": 1.0, "values": {"x2": 2.0}}],
    "T": 1.0,
}


def test_parse_minimal_defaults():
    cfg = parse_scenario(json.dumps(MINIMAL))
    assert cfg.dt == 1e-3
    assert cfg.tol == 1e-10
    assert cfg.constraint == "uniform"
    assert cfg.graph.vertices == ("x1", "x2", "x3", "x4")
    assert cfg.source(0.5)[cfg.graph.vertex_id("x2")] == 2.0


def test_parse_missing_dt_default():
    doc = dict(MINIMAL)
    assert "dt" not in doc
    assert parse_scenario(json.dumps(doc)).dt == 1e-3
    # an explicit null is the default too, not a crash in the solver
    cfg = parse_scenario(json.dumps(dict(doc, dt=None, tol=None)))
    assert (cfg.dt, cfg.tol) == (1e-3, 1e-10)


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda d: d.update(mode="zigzag"), "mode"),
    (lambda d: d.update(T=-1.0), "T"),
    (lambda d: d.update(dt=0.0), "dt"),
    (lambda d: d.update(u0={"nope": 1.0}), "u0.nope"),
    (lambda d: d.update(source=[{"start": 1.0, "end": 0.5, "values": {}}]),
     "source[0]"),
    (lambda d: d.update(constraint="weird"), "constraint"),
    (lambda d: d.update(mode="p-flow"), "p"),
    (lambda d: d.update(graph={"kind": "mystery"}), "graph.kind"),
    (lambda d: d.update(graph={"kind": "edges", "edges": []}),
     "graph.edges: expected a non-empty list"),
    (lambda d: d.update(graph={"kind": "file", "path": 3}),
     "graph.path: expected a file path string"),
    (lambda d: d.update(dT=0.5), "dT"),
    (lambda d: d.update(graph={"kind": "path", "nn": 4}), "graph.nn"),
    (lambda d: d["source"][0].update(valuez={}), "source[0].valuez"),
    (lambda d: d.update(runtime_budget_s=-1.0), "runtime_budget_s"),
    # each mode accepts only the keys it reads
    (lambda d: d.update(p=4.0), "p: unknown key in growth mode"),
    (lambda d: d.update(mode="collapse"), "source: collapse mode takes no"),
    (lambda d: d.update(mode="collapse", source=[], T=5.0), "T: collapse"),
    (lambda d: d.update(mode="collapse", source=[], T=True),
     "T: expected a number"),
    (lambda d: d.update(mode="collapse", source=[], p=1.0),
     "p: unknown key in collapse mode"),
])
def test_parse_schema_errors(mutate, path_fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ScenarioError, match=path_fragment.replace("[", r"\[")):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "3", '"growth"', "null"])
def test_parse_refuses_a_document_that_is_not_an_object(text):
    with pytest.raises(ScenarioError, match="^document: expected a JSON object$"):
        parse_scenario(text)


def test_parse_names_overlapping_source_segments():
    doc = dict(MINIMAL, source=[{"start": 0.5, "end": 1.0, "values": {}},
                                {"start": 0.0, "end": 0.6, "values": {}}])
    with pytest.raises(ScenarioError, match=re.escape(
            "source: source segments [0.0, 0.6) and [0.5, 1.0) overlap")):
        parse_scenario(json.dumps(doc))


def test_parse_collapse_source_and_horizon():
    # collapse ends at t = 1 without a source: both keys may be left out,
    # and the values the shipped collapse scenarios carry are accepted
    doc = {"graph": {"kind": "path", "n": 4}, "mode": "collapse",
           "u0": {"x2": 3.0}}
    for extra in ({}, {"source": [], "T": 1.0}, {"T": 1}):
        cfg = parse_scenario(json.dumps(dict(doc, **extra)))
        assert cfg.T == 1.0 and cfg.source.segments == ()


def test_parse_unstable_growth_datum():
    doc = dict(MINIMAL, u0={"x2": 3.0})
    with pytest.raises(ScenarioError, match="not stable"):
        parse_scenario(json.dumps(doc))


def test_trajectory_roundtrip(tmp_path, p4, p4_uniform):
    f = SourceSchedule.constant(p4, {"x2": 1.7})
    traj = solve_growth(p4, p4_uniform, np.zeros(4), f, 0.5, 1e-2)
    out = tmp_path / "run.csv"
    write_trajectory(traj, out)
    times, vertices, states = read_trajectory(out)
    assert vertices == list(p4.vertices)
    assert np.array_equal(times, traj.times)
    assert np.array_equal(states, traj.states)
    mass = (tmp_path / "run.mass.csv").read_text().splitlines()
    assert mass[0] == "t,residual"
    assert len(mass) == 1 + len(traj.step_times)


def test_mass_file_of_a_path_without_csv_suffix(tmp_path, p4, p4_uniform):
    traj = solve_growth(p4, p4_uniform, np.zeros(4),
                        SourceSchedule.constant(p4, {"x2": 1.0}), 0.1, 0.05)
    assert write_trajectory(traj, tmp_path / "run.out") == tmp_path / "run.out"
    assert (tmp_path / "run.out.mass.csv").read_text().splitlines() == \
        ["t,residual"] + [f"{t!r},{r!r}" for t, r in
                          zip(traj.step_times.tolist(), traj.mass_residuals.tolist())]


def test_empty_trajectory_header_only(tmp_path, p4):
    from graphsand.evolution import Trajectory
    traj = Trajectory(p4, np.empty(0), np.zeros((0, 4)))
    out = tmp_path / "empty.csv"
    write_trajectory(traj, out)
    assert out.read_text() == "t,vertex,u\n"
    assert (tmp_path / "empty.mass.csv").read_text() == "t,residual\n"
    times, vertices, states = read_trajectory(out)
    assert times.shape == (0,) and vertices == [] and states.shape == (0, 0)
    single = Trajectory(p4, np.array([0.0]), np.zeros((1, 4)))
    write_trajectory(single, tmp_path / "one.csv")
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 1 + 4


def test_shipped_scenarios_validate_and_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path in sorted(SCENARIOS.glob("*.json")):
        cfg = load_scenario(path)
        budget = json.loads(path.read_text()).get("runtime_budget_s", 30.0)
        start = time.perf_counter()
        result = run_scenario(cfg)
        elapsed = time.perf_counter() - start
        assert elapsed <= budget, f"{path.name} exceeded its runtime budget"
        assert result.n_samples >= 1


def test_cli_simulate_writes_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_command(["simulate", str(SCENARIOS / "chain_w4_model2.json"),
                      "--output", "chain.csv"])
    assert rc == 0
    assert (tmp_path / "chain.csv").exists()
    assert (tmp_path / "chain.mass.csv").exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape "
                 "(1000001, 100000) and data type float64"),
     "error: out of memory: Unable to allocate 745. GiB for an array with "
     "shape (1000001, 100000) and data type float64"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy-message", "bare"])
def test_cli_maps_memory_error_to_exit_2(tmp_path, monkeypatch, capsys, exc, line):
    # a run too large to hold ends in one line and exit 2, not a traceback
    monkeypatch.chdir(tmp_path)

    def solve(*args, **kwargs):
        raise exc

    monkeypatch.setattr(scenario_module, "solve_growth", solve)
    rc = run_command(["simulate", str(SCENARIOS / "chain_w4_model2.json"),
                      "--output", "chain.csv"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == line + "\n" and captured.out == ""


def test_cli_z_lattice_golden_row(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run_command(["simulate", str(SCENARIOS / "z_lattice.json"),
                      "--output", "z.csv"])
    assert rc == 0
    times, vertices, states = read_trajectory(tmp_path / "z.csv")
    k = int(np.argmin(np.abs(times - 4.0)))
    assert abs(times[k] - 4.0) < 5e-3
    assert states[k][vertices.index("0")] == pytest.approx(2.0, abs=5e-3)


def test_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = SCENARIOS / "p4_two_sources_a3b1.json"
    assert run_command(["simulate", str(scenario), "--output", "a.csv"]) == 0
    assert run_command(["simulate", str(scenario), "--output", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.mass.csv").read_bytes() == \
        (tmp_path / "b.mass.csv").read_bytes()


def test_cli_collapse_reports_final_state(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run_command(["collapse", str(SCENARIOS / "p4_collapse_b1.json")])
    assert rc == 0
    final = capsys.readouterr().out.strip().splitlines()[-1]
    assert final.startswith("u_infinity = ")
    values = ast.literal_eval(final.removeprefix("u_infinity = "))
    assert np.allclose(values, [0.8, 1.8, 0.8, 1.0], atol=1e-2)


def test_cli_simulate_stable_collapse_datum(tmp_path, monkeypatch, capsys):
    # an already stable datum collapses in zero steps: nothing to reduce over
    monkeypatch.chdir(tmp_path)
    scenario = {
        "graph": {"kind": "path", "n": 4},
        "mode": "collapse",
        "u0": {"x2": 0.5},
        "source": [],
        "T": 1.0,
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    rc = run_command(["simulate", "s.json", "--output", "s.csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps=0 max_mass_residual=0.000e+00" in out
    times, vertices, states = read_trajectory(tmp_path / "s.csv")
    assert states.tolist() == [[0.0, 0.5, 0.0, 0.0]]


def test_cli_converge_p_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run_command(["converge-p", str(SCENARIOS / "z_lattice.json"),
                      "--p-list", "8,64", "--T", "1.5", "--output", "conv.csv"])
    assert rc == 0
    rows = (tmp_path / "conv.csv").read_text().splitlines()
    assert rows[0] == "p,sup_error"
    table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert table[64.0] < table[8.0]


def test_cli_project(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("x1 x2 1.0\nx2 x3 1.0\nx3 x4 1.0\n")
    (tmp_path / "z.txt").write_text("x2 3.0\n")
    rc = run_command(["project", "g.txt", "z.txt", "--kind", "uniform"])
    assert rc == 0
    out = {line.split()[0]: float(line.split()[1])
           for line in capsys.readouterr().out.strip().splitlines()}
    assert out["x2"] == pytest.approx(1.8, abs=1e-9)
    assert out["x1"] == pytest.approx(0.8, abs=1e-9)


def test_cli_project_huge_field(tmp_path, monkeypatch, capsys):
    # rounding at 1e150 is far above tol: the projector stops at the
    # rounding floor of the field's magnitude, not after MAX_SWEEPS
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("a b 1.0\nb c 1.0\n")
    (tmp_path / "z.txt").write_text("b 1e150\nc -1e150\n")
    assert run_command(["project", "g.txt", "z.txt"]) == 0
    out = [float(line.split()[1])
           for line in capsys.readouterr().out.strip().splitlines()]
    assert out == pytest.approx([2.5e149] * 3, rel=1e-12)


def test_cli_project_refuses_duplicate_vertex(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("a b 1.0\nb c 1.0\n")
    (tmp_path / "z.txt").write_text("b 5\n# the last line would win\nb 0\n")
    assert run_command(["project", "g.txt", "z.txt"]) == 1
    captured = capsys.readouterr()
    assert "z.txt:3: duplicate vertex 'b'" in captured.err
    assert captured.out == ""


# every fault of a field or graph file, as `project` reports it, names the
# file and the line
@pytest.mark.parametrize("graph, field, message", [
    ("a b 1.0\nb c 1.0\n", "a 1\nb abc\n",
     "z.txt:2: could not convert string to float: 'abc'"),
    ("a b 1.0\nb c 1.0\n", "b nan\n", "z.txt:1: 'nan' is not a finite number"),
    ("a b 1.0\nb c 1.0\n", "# zz is no vertex\n\nzz 1\n",
     "z.txt:3: unknown vertex 'zz'"),
    ("a b 1.0\nb c 1.0\n", "b 1 2\n",
     "z.txt:1: expected '<vertex> <value>', got 'b 1 2'"),
    ("a b 1.0\nb c\n", "b 1\n",
     "g.txt:2: expected '<vertex> <vertex> <weight>', got 'b c'"),
    ("a b 1.0\nb c x\n", "b 1\n", "g.txt:2: could not convert string to float: 'x'"),
    ("a b 1.0\nc b 1.0\nb c 2.0\n", "b 1\n", "g.txt:3: duplicate edge ('b', 'c')"),
    # a line ends at "\n" only: a form feed or a record separator in a line
    # neither splits it nor makes a record of the comment's tail
    ("a b 1.0\nb c 1.0\n", "a 1\nb 2\x0cc 3\n",
     "z.txt:2: expected '<vertex> <value>', got 'b 2\\x0cc 3'"),
    ("a b 1.0\nb c 1.0\n", "# a\x1enote\nzz 1\n", "z.txt:2: unknown vertex 'zz'"),
], ids=["value-not-a-number", "value-nan", "unknown-vertex", "three-fields",
        "edge-two-fields", "edge-weight-not-a-number", "duplicate-edge",
        "two-records-on-a-line", "line-after-a-separator"])
def test_cli_project_names_file_and_line(tmp_path, monkeypatch, capsys, graph,
                                         field, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "z.txt").write_text(field)
    assert run_command(["project", "g.txt", "z.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_transport_check(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scenario = {
        "graph": {"kind": "truncated_z", "radius": 6},
        "mode": "growth",
        "u0": {},
        "source": [{"start": 0.0, "end": 3.0, "values": {"0": 1.0}}],
        "T": 3.0,
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    rc = run_command(["transport-check", "s.json", "--t", "2.5"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


def test_cli_transport_check_refuses_collapse_scenario(monkeypatch, capsys):
    rc = run_command(["transport-check", str(SCENARIOS / "p4_collapse_b1.json"),
                      "--t", "0.5"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: mode: transport-check needs a growth scenario\n"


def test_cli_transport_check_refuses_supports_above_oracle_limit(tmp_path, monkeypatch,
                                                                 capsys):
    # the oracle is exact on supports of at most 50 vertices: a source on 51
    # vertices is a validation error, not a solver failure
    monkeypatch.chdir(tmp_path)
    values = {f"x{k}": 1.0 for k in range(1, 52)}
    scenario = {"graph": {"kind": "path", "n": 60}, "mode": "growth",
                "source": [{"start": 0.0, "end": 1.0, "values": values}],
                "T": 0.1, "dt": 0.05}
    (tmp_path / "wide.json").write_text(json.dumps(scenario))
    assert run_command(["transport-check", "wide.json", "--t", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        "error: transport oracle supports at most 50 support vertices\n"
    assert captured.out == ""


def test_cli_transport_check_keeps_every_step(tmp_path, monkeypatch, capsys):
    # the rate at t needs the step just before t, whatever the sampling
    monkeypatch.chdir(tmp_path)
    doc = json.loads((SCENARIOS / "z_lattice.json").read_text())
    assert doc.pop("sample_every") > 1
    (tmp_path / "z.json").write_text(json.dumps(doc))
    outs = []
    for path in (SCENARIOS / "z_lattice.json", tmp_path / "z.json"):
        assert run_command(["transport-check", str(path), "--t", "9"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_command(["simulate", "does_not_exist.json"]) == 1
    assert run_command(["bogus-command"]) == 1
    # solver failure: growth reaches the guard band of a tiny truncation
    scenario = {
        "graph": {"kind": "truncated_z", "radius": 2},
        "mode": "growth",
        "u0": {},
        "source": [{"start": 0.0, "end": 3.0, "values": {"0": 1.0}}],
        "T": 3.0, "dt": 0.01,
    }
    (tmp_path / "tiny.json").write_text(json.dumps(scenario))
    assert run_command(["simulate", "tiny.json"]) == 2
    # the band is reached mid-run and left again by the final step
    scenario = {
        "graph": {"kind": "truncated_z", "radius": 3},
        "mode": "growth",
        "source": [{"start": 0.0, "end": 0.5, "values": {"2": 1.0}},
                   {"start": 0.5, "end": 1.0, "values": {"2": -1.0}}],
        "T": 1.0, "dt": 0.125,
    }
    (tmp_path / "touch.json").write_text(json.dumps(scenario))
    assert run_command(["simulate", "touch.json"]) == 2
    assert "guard band at t=0.125" in capsys.readouterr().err
    # inv-w has its p-energy like every other kind: converge-p and a p-flow
    # scenario on it run
    scenario = {
        "graph": {"kind": "path", "n": 3, "weights": [1.0, 4.0]},
        "constraint": "inv-w",
        "mode": "growth",
        "source": [{"start": 0.0, "end": 1.0, "values": {"x2": 1.0}}],
        "T": 1.0, "dt": 0.01,
    }
    (tmp_path / "invw.json").write_text(json.dumps(scenario))
    assert run_command(["converge-p", "invw.json", "--p-list", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,sup_error" and lines[1].startswith("8.0,")
    (tmp_path / "invw_flow.json").write_text(
        json.dumps(dict(scenario, mode="p-flow", p=8.0)))
    assert run_command(["simulate", "invw_flow.json", "--output", "f.csv"]) == 0
    assert "mode=p-flow steps=100" in capsys.readouterr().out
    times, _, states = read_trajectory(tmp_path / "f.csv")
    assert times[-1] == 1.0 and np.all(np.isfinite(states))
    # keys a mode does not read are refused, not ignored
    collapse = {"graph": {"kind": "path", "n": 4}, "mode": "collapse",
                "u0": {"x2": 3.0}, "source": [], "T": 1.0}
    for extra, message in (
            ({"source": [{"start": 0, "end": 5, "values": {"x1": 7.0}}]},
             "source: collapse mode takes no source"),
            ({"T": 5.0}, "T: collapse mode ends at T = 1"),
            ({"p": 1.0}, "p: unknown key in collapse mode")):
        (tmp_path / "c.json").write_text(json.dumps(dict(collapse, **extra)))
        for command in ("simulate", "collapse"):
            assert run_command([command, "c.json"]) == 1
            assert message in capsys.readouterr().err
    (tmp_path / "g.json").write_text(json.dumps(dict(MINIMAL, p=4.0)))
    assert run_command(["simulate", "g.json"]) == 1
    assert "p: unknown key in growth mode" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
