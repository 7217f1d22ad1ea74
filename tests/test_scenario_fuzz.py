"""Scenario schema fuzzing and the malformed inputs it once let through.

`parse_scenario` on any generated document must return a config or raise
ScenarioError, never anything else.  Documents mix valid small graphs and
data with junk leaves: integer literals of hundreds of digits, booleans,
strings, nulls, nested lists and non-finite floats.  Graphs stay small
(n <= 6, radius <= 4, at most 6 edges); only parsing runs, no solver.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from graphsand import scenario
from graphsand.cli import run_command
from graphsand.scenario import MAX_GRAPH_COUNT, MAX_STATE_CELLS, MAX_STEPS, \
    ScenarioError, parse_scenario

HUGE = 10 ** 400
PROPERTY = settings(max_examples=400, deadline=None, database=None)

nested = st.recursive(st.none() | st.booleans() | st.integers(-3, 3),
                      lambda inner: st.lists(inner, max_size=3), max_leaves=6)
not_numbers = st.one_of(st.booleans(), st.none(), st.text(max_size=4), nested,
                        st.floats(allow_nan=True, allow_infinity=True))
out_of_range = st.sampled_from([HUGE, -HUGE, 10 ** 309, 0, -1])
junk = st.one_of(not_numbers, out_of_range, st.integers(-HUGE, HUGE))
# junk that is never a usable vertex count; an arbitrary integer could be a
# valid count and build a graph of that size
not_counts = st.one_of(not_numbers, out_of_range,
                       st.just(MAX_GRAPH_COUNT + 1))
positive = st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.integers(1, 3)
small = st.sampled_from([0.0, 0.25, 0.5])


@st.composite
def valid_graphs(draw):
    """A small graph node and its vertex labels."""
    kind = draw(st.sampled_from(["path", "star", "truncated_z", "edges"]))
    if kind == "path":
        n = draw(st.integers(2, 6))
        node = {"kind": kind, "n": n}
        if draw(st.booleans()):
            node["weights"] = draw(st.lists(positive, min_size=n - 1, max_size=n - 1))
        return node, [f"x{k}" for k in range(1, n + 1)]
    if kind == "star":
        weights = draw(st.lists(positive, min_size=2, max_size=5))
        return {"kind": kind, "weights": weights}, \
            [f"x{k}" for k in range(len(weights) + 1)]
    if kind == "truncated_z":
        r = draw(st.integers(1, 4))
        return {"kind": kind, "radius": r}, [str(k) for k in range(-r, r + 1)]
    names = draw(st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=7,
                          unique=True))
    edges = [[names[draw(st.integers(0, k - 1))], names[k], draw(positive)]
             for k in range(1, len(names))]
    return {"kind": kind, "edges": edges}, names


@st.composite
def valid_documents(draw):
    graph, names = draw(valid_graphs())
    mode = draw(st.sampled_from(["growth", "p-flow", "collapse"]))
    fields = st.dictionaries(st.sampled_from(names), small, max_size=3)
    doc = {"graph": graph, "mode": mode, "u0": draw(fields)}
    if mode != "collapse":
        doc["T"] = draw(positive)
        doc["source"] = [{"start": 0.0, "end": draw(positive), "values": draw(fields)}]
    if mode == "p-flow":
        doc["p"] = draw(st.sampled_from([2.0, 4.0, 16]))
    for key, value in (("dt", positive), ("tol", positive),
                       ("sample_every", st.integers(1, 3)),
                       ("constraint", st.sampled_from(["uniform", "inv-sqrt-w", "inv-w"])),
                       ("output", st.just("out.csv")), ("runtime_budget_s", positive)):
        if draw(st.booleans()):
            doc[key] = draw(value)
    return doc


def _slots(node):
    """(container, key) of every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def documents(draw):
    """A valid document with up to three values replaced by junk, deleted,
    or joined by an unknown key."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "delete" and isinstance(container, dict):
            del container[key]
        elif action == "add" and isinstance(container, dict):
            container["extra"] = draw(junk)
        else:
            container[key] = draw(not_counts if key in ("n", "radius") else junk)
        if not doc:
            break
    return doc


@PROPERTY
@given(documents())
def test_parse_returns_or_raises_scenario_error(doc):
    try:
        cfg = parse_scenario(json.dumps(doc))
    except ScenarioError:
        return
    assert cfg.graph.n_vertices <= 9


@pytest.mark.parametrize("text", [
    "[" * 100_000,                      # deeper than the JSON decoder recurses
    '{"T": ' + "9" * 5000 + "}",        # longer than int() converts
    "{\"T\": 1.0",
], ids=["deep", "long-numeral", "truncated"])
def test_parse_malformed_text(text):
    with pytest.raises(ScenarioError, match="document: not valid JSON"):
        parse_scenario(text)


BASE = {
    "graph": {"kind": "path", "n": 3},
    "mode": "growth",
    "u0": {},
    "source": [{"start": 0.0, "end": 1.0, "values": {"x2": 1.0}}],
    "T": 0.01,
    "dt": 0.005,
}


SIMULATE = ("simulate", "s.json", "--output", "s.csv")


def row(key, change, message, argv=SIMULATE):
    """One input the CLI refuses with exit 1: the scenario is BASE updated
    by change.  The test id is the key and the message, so a row inserted
    anywhere renames no other row; the first 27 keys spell the ids these
    rows were first collected under."""
    return pytest.param(change, message, list(argv), id=f"{key}-{message}")


def duplicate(entry, repeat, key, where, change=None):
    """A row whose scenario is BASE, updated by change, as JSON text with
    `repeat`, a second entry of the key in `entry`, written after it;
    json.dumps cannot write a repeated key, so the row passes the text."""
    text = json.dumps(dict(BASE, **(change or {})))
    assert text.count(entry) == 1
    return pytest.param(text.replace(entry, f"{entry}, {repeat}"),
                        f"document: duplicate key {key!r}", list(SIMULATE),
                        id=f"duplicate-{where}")


def converge_p(*options):
    return ("converge-p", "s.json", *options)


def transport_check(*options):
    return ("transport-check", "s.json", "--t", "0.01", *options)


POSITIVE = "must be a positive finite number"
STEPS = f"steps, at most {MAX_STEPS}"
COLLAPSE_TINY_DT = {"mode": "collapse", "u0": {"x2": 3.0}, "source": [], "T": 1,
                    "dt": 1e-8}
P_ENTRY = "--p-list: must be a finite number >= 2"
SAMPLE_EVERY = "sample_every: expected a positive integer"


@pytest.mark.parametrize("change, message, argv", [
    # integer literals beyond the float range
    row("change0", {"dt": HUGE}, "dt: must be finite"),
    row("change1", {"T": HUGE}, "T: must be finite"),
    row("change2", {"tol": -HUGE}, "tol: must be positive"),
    row("change3", {"u0": {"x2": HUGE}}, "u0.x2: must be finite"),
    row("change4", {"source": [{"start": 0.0, "end": 1.0, "values": {"x2": HUGE}}]},
        "source[0].values.x2: must be finite"),
    row("change5", {"graph": {"kind": "path", "n": 3, "weights": [1.0, HUGE]}},
        "graph.weights[1]: must be finite"),
    row("change6", {"graph": {"kind": "edges", "edges": [["x1", "x2", HUGE]]}},
        "graph.edges[0][2]: must be finite"),
    # graph weights go through the schema
    row("change7", {"graph": {"kind": "path", "n": 4, "weights": "abc"}},
        "graph.weights: expected a list of 3 weights"),
    row("change8", {"graph": {"kind": "path", "n": 4, "weights": [1.0]}},
        "graph.weights: expected a list of 3 weights"),
    row("change9", {"graph": {"kind": "star", "weights": ["a", 1]}},
        "graph.weights[0]: expected a number, got 'a'"),
    row("change10", {"graph": {"kind": "star", "weights": [1, True]}},
        "graph.weights[1]: expected a number, got True"),
    row("change11", {"graph": {"kind": "path", "n": 3, "weights": [1, -1]}},
        "graph.weights[1]: must be positive"),
    row("change12", {"graph": {"kind": "edges", "edges": [["x1", "x2", None]]}},
        "graph.edges[0][2]: expected a number, got None"),
    row("change13", {"graph": {"kind": "edges", "edges": [["x1", "x2"]]}},
        "graph.edges[0]: expected [vertex, vertex, weight]"),
    row("change14", {"graph": {"kind": "truncated_z", "radius": True}},
        "graph.radius: expected an integer >= 1"),
    row("change15", {"u0": {"x2": None}}, "u0.x2: expected a number, got None"),
    # vertex labels that would break the `t,vertex,u` CSV
    row("change16", {"graph": {"kind": "edges", "edges": [["a,b", "c", 1.0]]}},
        "graph.edges[0]: vertex label 'a,b' contains ','"),
    row("change17", {"graph": {"kind": "edges", "edges": [["x2", "b\n", 1.0]]}},
        "graph.edges[0]: vertex label 'b\\n' contains"),
    row("change18", {"graph": {"kind": "edges", "edges": [["x2", "b\r", 1.0]]}},
        "graph.edges[0]: vertex label 'b\\r' contains"),
    # a fault of one edge entry names the entry, a fault of the graph the list
    row("edge-duplicate",
        {"graph": {"kind": "edges", "edges": [["x1", "x2", 1.0], ["x2", "x1", 2.0]]}},
        "graph.edges[1]: duplicate edge ('x1', 'x2')"),
    row("edge-self-loop",
        {"graph": {"kind": "edges",
                   "edges": [["x1", "x2", 1.0], ["x2", "x3", 1.0], ["x3", "x3", 1.0]]}},
        "graph.edges[2]: self-loop on vertex 'x3' is not allowed"),
    row("edge-disconnected",
        {"graph": {"kind": "edges", "edges": [["x1", "x2", 1.0], ["x3", "x4", 1.0]]}},
        "graph.edges: graph is disconnected"),
    # vertex counts beyond the schema's bound, refused before any graph
    # of that size is built
    row("change19", {"graph": {"kind": "path", "n": HUGE}},
        f"graph.n: must be at most {MAX_GRAPH_COUNT}"),
    row("change20", {"graph": {"kind": "truncated_z", "radius": HUGE}},
        f"graph.radius: must be at most {MAX_GRAPH_COUNT}"),
    row("change21", {"graph": {"kind": "path", "n": MAX_GRAPH_COUNT + 1}},
        f"graph.n: must be at most {MAX_GRAPH_COUNT}"),
    # vertex labels are strings or integers, never read through str()
    row("change22", {"graph": {"kind": "edges", "edges": [[None, "x2", 1.0]]}},
        "graph.edges[0][0]: expected a vertex label (string or integer), got None"),
    row("change23",
        {"graph": {"kind": "edges", "edges": [["x1", "x2", 1.0], ["x2", True, 2.0]]}},
        "graph.edges[1][1]: expected a vertex label (string or integer), got True"),
    row("change24", {"graph": {"kind": "edges", "edges": [[1.5, "x2", 1.0]]}},
        "graph.edges[0][0]: expected a vertex label (string or integer), got 1.5"),
    row("change25", {"graph": {"kind": "edges", "edges": [["x2", {"a": 1}, 1.0]]}},
        "graph.edges[0][1]: expected a vertex label (string or integer), got {'a': 1}"),
    row("change26", {"graph": {"kind": "edges", "edges": [["x2", ["x1"], 1.0]]}},
        "graph.edges[0][1]: expected a vertex label (string or integer), got ['x1']"),
    # numeric command-line options: argparse reads nan and inf as floats
    row("T-inf", {}, f"--T: {POSITIVE}", converge_p("--p-list", "8", "--T", "inf")),
    row("T-nan", {}, f"--T: {POSITIVE}", converge_p("--T", "nan")),
    row("T-zero", {}, f"--T: {POSITIVE}", converge_p("--T", "0")),
    row("p-list-nan", {}, P_ENTRY, converge_p("--p-list", "nan")),
    row("p-list-inf", {}, P_ENTRY, converge_p("--p-list", "8,inf")),
    row("p-list-below-2", {}, P_ENTRY, converge_p("--p-list", "1.5,8")),
    row("tol-nan", {}, f"--tol: {POSITIVE}", transport_check("--tol", "nan")),
    row("tol-negative", {}, f"--tol: {POSITIVE}", transport_check("--tol", "-1")),
    row("tol-inf", {}, f"--tol: {POSITIVE}", transport_check("--tol", "inf")),
    # step counts whose time grid alone would exhaust memory
    row("steps-growth", {"T": 1e12, "dt": 1e-3}, f"dt: T/dt asks for 1e+15 {STEPS}"),
    row("steps-just-above", {"T": 10_000.01, "dt": 1e-3},
        f"dt: T/dt asks for 1e+07 {STEPS}"),
    row("steps-overflow", {"T": 1e300, "dt": 1e-300}, f"dt: T/dt asks for inf {STEPS}"),
    row("steps-collapse", COLLAPSE_TINY_DT, f"dt: T/dt asks for 1e+08 {STEPS}",
        ("collapse", "s.json", "--output", "s.csv")),
    row("steps-converge-p-T", {}, f"dt: T/dt asks for 2e+14 {STEPS}",
        converge_p("--T", "1e12")),
    # a repeated key is refused, not read as its last value
    duplicate('"T": 0.01', '"T": 2.0', "T", "top-level"),
    duplicate('"x1": 0.5', '"x1": 0.0', "x1", "u0-vertex", {"u0": {"x1": 0.5}}),
    duplicate('"x2": 1.0', '"x2": 0.0', "x2", "source-values-vertex"),
    duplicate('"n": 3', '"n": 4', "n", "graph-key"),
    # growth has no default end time; BASE without "T", passed as text
    row("T-missing", json.dumps({k: v for k, v in BASE.items() if k != "T"}),
        "T: required"),
    row("sample-every-zero", {"sample_every": 0}, SAMPLE_EVERY),
    row("sample-every-bool", {"sample_every": True}, SAMPLE_EVERY),
    row("sample-every-float", {"sample_every": 1.5}, SAMPLE_EVERY),
    row("sample-every-string", {"sample_every": "2"}, SAMPLE_EVERY),
    row("output-number", {"output": 3}, "output: expected a path string"),
    # kept states beyond the memory budget: a path refused before it is
    # built, a star after, and transport-check, which keeps every step
    row("state-cells-path",
        {"graph": {"kind": "path", "n": MAX_GRAPH_COUNT}, "T": 1000.0, "dt": 1e-3},
        "sample_every: keeps 1000001 samples of 100000 vertices (745 GiB), "
        f"at most {MAX_STATE_CELLS} state cells"),
    row("state-cells-star",
        {"graph": {"kind": "star", "weights": [1, 1, 1]}, "T": 1e7, "dt": 1.0},
        "sample_every: keeps 10000001 samples of 4 vertices (0.298 GiB)"),
    row("state-cells-transport-check",
        {"graph": {"kind": "path", "n": 1000}, "T": 1000.0, "dt": 1e-3,
         "sample_every": 1000},
        "transport-check: keeps 1000001 samples of 1000 vertices (7.45 GiB)",
        transport_check()),
])
def test_cli_refuses_malformed_scenario(tmp_path, monkeypatch, capsys, change,
                                        message, argv):
    monkeypatch.chdir(tmp_path)
    text = change if isinstance(change, str) else json.dumps(dict(BASE, **change))
    (tmp_path / "s.json").write_text(text)
    assert run_command(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("graph, builder", [
    ({"kind": "path", "n": MAX_GRAPH_COUNT}, "build_path"),
    ({"kind": "truncated_z", "radius": MAX_GRAPH_COUNT // 2}, "build_truncated_z"),
], ids=["path", "truncated_z"])
def test_state_budget_refuses_a_counted_graph_before_building_it(
        monkeypatch, graph, builder):
    # building a 100000-vertex path alone takes most of a second
    monkeypatch.setattr(scenario, builder, lambda *args: pytest.fail("built"))
    doc = dict(BASE, graph=graph, T=1000.0, dt=1e-3, source=[])
    with pytest.raises(ScenarioError, match="^sample_every: keeps 1000001 "
                                            "samples of 10000[01] vertices"):
        parse_scenario(json.dumps(doc))


def test_step_cap_admits_exactly_max_steps():
    cfg = parse_scenario(json.dumps(dict(BASE, T=float(MAX_STEPS), dt=1.0)))
    assert cfg.T / cfg.dt == MAX_STEPS  # parsed only, never run


def test_cli_refuses_comma_label_in_graph_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("a,b c 1.0\nc x2 1.0\n")
    doc = dict(BASE, graph={"kind": "file", "path": "g.txt"})
    (tmp_path / "s.json").write_text(json.dumps(doc))
    assert run_command(["simulate", "s.json", "--output", "s.csv"]) == 1
    assert "graph.path: g.txt:1: vertex label 'a,b' contains ','" \
        in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()

