"""Command-line fuzzing: `run_command` on generated argv returns an exit
code, 0, 1 or 2, and never raises.

The inputs are tiny files written once per module: a 3-vertex path growth
scenario of 2 steps, a collapse scenario on the same path, and an edge-list
graph with a field file for `project`.  Every output path lies in the
module's temporary directory, apart from the inputs.
"""

import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from graphsand.cli import run_command

FUZZ = settings(max_examples=100, deadline=None, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    path3 = {"kind": "path", "n": 3}
    docs = {
        "growth.json": {"graph": path3, "mode": "growth", "u0": {}, "T": 0.02,
                        "dt": 0.01, "output": str(root / "growth.csv"),
                        "source": [{"start": 0.0, "end": 0.02,
                                    "values": {"x2": 1.0}}]},
        "collapse.json": {"graph": path3, "mode": "collapse", "u0": {"x2": 1.5},
                          "dt": 0.1, "output": str(root / "collapse.csv")},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "g.txt").write_text("a b 1.0\nb c 2.0\n")
    (root / "z.txt").write_text("b 3.0\n")
    (root / "out").mkdir()
    (root / "cwd").mkdir()
    return root


increasing_p = st.lists(st.sampled_from([2, 4, 8, 64]), min_size=1, max_size=3,
                        unique=True).map(lambda ps: ",".join(map(str, sorted(ps))))
p_tokens = st.sampled_from(["8", "1.5", "0", "-3", "nan", "inf", "1e400", "x", ""])
p_lists = increasing_p | st.lists(p_tokens, max_size=4).map(",".join) \
    | st.text(max_size=6)
horizons = st.sampled_from(["0.01", "0.02"]) \
    | st.sampled_from(["0", "-1", "nan", "inf", "1e12", "abc", ""])
# at most one unknown option, stray value or option missing its value
def extras(*options):
    return st.lists(st.sampled_from(["--bogus", "extra", "-x", *options]), max_size=1)


@FUZZ
@given(p_list=st.none() | p_lists, T=st.none() | horizons,
       extra=extras("--T", "--p-list"))
def test_converge_p_options_fuzzed(files, p_list, T, extra):
    argv = ["converge-p", str(files / "growth.json")]
    if p_list is not None:
        argv += ["--p-list", p_list]
    if T is not None:
        argv += ["--T", T]
    assert run_command(argv + extra) in (0, 1, 2)


kinds = st.sampled_from(["uniform", "inv-sqrt-w", "inv-w"]) \
    | st.sampled_from(["inverse_weight", "custom", "", "UNIFORM"]) | st.text(max_size=6)


@FUZZ
@given(kind=st.none() | kinds,
       field=st.sampled_from(["z.txt", "z.txt", "g.txt", "missing.txt"]),
       extra=extras("--kind"))
def test_project_kind_fuzzed(files, kind, field, extra):
    argv = ["project", str(files / "g.txt"), str(files / field),
            "--output", str(files / "projected.txt")]
    if kind is not None:
        argv += ["--kind", kind]
    assert run_command(argv + extra) in (0, 1, 2)


@FUZZ
@given(command=st.sampled_from(["simulate", "collapse"]),
       scenario=st.sampled_from(["growth.json", "collapse.json", "missing.json", None]),
       tokens=st.lists(st.sampled_from(["--output", "out.csv", "--bogus", "-x", "--T",
                                        "1", "growth.json", ""]), max_size=3))
@example(command="simulate", scenario="growth.json", tokens=["--output", "1"])
@example(command="simulate", scenario="growth.json", tokens=["--output", "growth.json"])
def test_simulate_and_collapse_arguments_fuzzed(files, command, scenario, tokens):
    # a value of --output resolves in the module's out/ directory, other
    # .json and .csv names in the module's directory; the rest are unknown
    # options, stray values or missing arguments.  A run writes nothing
    # into the directory it runs from and leaves the scenarios unchanged.
    args = ([scenario] if scenario else []) + tokens
    argv = [command]
    for prev, tok in zip([None] + args, args):
        if prev == "--output" and tok and not tok.startswith("-"):
            tok = str(files / "out" / tok)
        elif tok.endswith((".json", ".csv")):
            tok = str(files / tok)
        argv.append(tok)
    inputs = {name: (files / name).read_bytes()
              for name in ("growth.json", "collapse.json")}
    home = os.getcwd()
    os.chdir(files / "cwd")
    try:
        assert run_command(argv) in (0, 1, 2)
    finally:
        os.chdir(home)
    assert not any((files / "cwd").iterdir())
    assert inputs == {name: (files / name).read_bytes() for name in inputs}
