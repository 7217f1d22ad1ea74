"""Trajectory CSV files: the writer's bytes, round trips and reader errors.

`write_trajectory` prints every cell as `repr(float(.))`, so its bytes are
compared with a per-cell reference formatter kept here.  `read_trajectory`
reads in chunks of about 64 KiB of text; every malformed input must fail
with a ValueError naming the path and the line, time or vertex, and the
reader's peak allocation must stay a small multiple of the file size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsand import (ConstraintSet, SourceSchedule, build_graph, build_path,
                       read_trajectory, solve_growth, write_trajectory)
from graphsand import scenario
from graphsand.evolution import Trajectory

PROPERTY = settings(max_examples=150, deadline=None, database=None)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 3.0, -7.0,
           2.0 ** 53, 0.1, 1 / 3, float("nan"), float("inf")]
GOOD = "t,vertex,u\n0.0,a,1.0\n0.0,b,2.0\n0.5,a,1.5\n0.5,b,2.5\n"


def reference_csvs(traj):
    """The trajectory and mass CSV texts, formatted one cell at a time."""
    rows = ["t,vertex,u\n"]
    for t, state in zip(traj.times, traj.states):
        for v, x in zip(traj.graph.vertices, state):
            rows.append(f"{repr(float(t))},{v},{repr(float(x))}\n")
    mass = ["t,residual\n"]
    for t, r in zip(traj.step_times, traj.mass_residuals):
        mass.append(f"{repr(float(t))},{repr(float(r))}\n")
    return "".join(rows), "".join(mass)


@st.composite
def drawn_trajectories(draw):
    """Free times and states on a path of drawn labels, special values
    (signed zeros, subnormals, 1e308, integral floats, NaN) mixed in."""
    labels = draw(st.lists(st.text("abxyz019-_.", min_size=1, max_size=4),
                           min_size=2, max_size=6, unique=True))
    g = build_graph([(a, b, 1.0) for a, b in zip(labels, labels[1:])])
    times = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=1, max_size=6, unique=True)))
    cell = st.one_of(st.sampled_from(SPECIAL), st.floats())
    states = draw(st.lists(st.lists(cell, min_size=g.n_vertices, max_size=g.n_vertices),
                           min_size=len(times), max_size=len(times)))
    steps = draw(st.lists(st.tuples(st.floats(0, 10), cell), max_size=8))
    return Trajectory(g, np.array(times), np.array(states),
                      np.array([t for t, _ in steps]), np.array([r for _, r in steps]))


@st.composite
def thinned_trajectories(draw):
    """Growth runs on a 4-path keeping every k-th step (k > 1) and the last."""
    g = build_path(4)
    every = draw(st.integers(2, 6))
    n_steps = draw(st.integers(1, 30))
    f = SourceSchedule.constant(g, {draw(st.sampled_from(g.vertices)):
                                    draw(st.integers(1, 24)) / 8.0})
    return solve_growth(g, ConstraintSet.from_kind(g, "uniform"), np.zeros(4), f,
                        n_steps / 16.0, 1 / 16.0, sample_every=every)


def same_floats(a, b):
    """Equal arrays, NaN where NaN, and equal signs elsewhere."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


@PROPERTY
@given(st.one_of(drawn_trajectories(), thinned_trajectories()))
def test_writer_bytes_and_round_trip(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("csv") / "run.csv"
    write_trajectory(traj, out)
    text, mass = reference_csvs(traj)
    assert out.read_bytes() == text.encode("utf-8")
    assert out.with_suffix(".mass.csv").read_bytes() == mass.encode("utf-8")
    times, vertices, states = read_trajectory(out)
    assert vertices == list(traj.graph.vertices)
    assert same_floats(times, traj.times)
    assert same_floats(states, traj.states)


def write(tmp_path, text, name="run.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text, message", [
    ("t,v,u\n0.0,a,1.0\n", r"not a trajectory CSV \(header 't,v,u'\)"),
    ("", "not a trajectory CSV"),
    ("t,vertex,u\n0.0,a,1.0\n0.0,b\n",
     r"line 3: expected t,vertex,u, got 2 fields in '0.0,b'"),
    ("t,vertex,u\n0.0,a,1.0\n0.0,b,2.0,9\n",
     r"line 3: expected t,vertex,u, got 4 fields in '0.0,b,2.0,9'"),
    # the cell count of the chunk is right; the rows are not
    ("t,vertex,u\n0.0,a,1.0,0.0\nb,2.0\n",
     r"line 2: expected t,vertex,u, got 4 fields in '0.0,a,1.0,0.0'"),
    ("t,vertex,u\n0.0,a,1.0\n\n0.0,b,2.0\n",
     "line 3: expected t,vertex,u, got a blank line"),
    (GOOD + "\n", "line 6: expected t,vertex,u, got a blank line"),
    (GOOD.replace("0.5,b,2.5\n", ""), "no cell for t=0.5, vertex 'b'"),
    (GOOD + "0.0,a,7.0\n", "line 6: second cell for t=0.0, vertex 'a'"),
    (GOOD.replace("2.0", "x"), "line 3: value 'x' is not a number"),
    (GOOD.replace("0.5,a", "now,a"), "line 4: time 'now' is not a number"),
], ids=["header", "empty", "2-fields", "4-fields", "4-then-2-fields", "blank",
        "trailing-blank", "missing", "duplicate", "value", "time"])
def test_reader_errors_name_path_and_place(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=message) as excinfo:
        read_trajectory(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text", [
    GOOD, GOOD.replace("\n", "\r\n"), GOOD.rstrip("\n"),
    GOOD.replace("\n", "\r\n").rstrip("\r\n"),
], ids=["lf", "crlf", "no-final-newline", "crlf-no-final-newline"])
def test_reader_line_endings(tmp_path, text):
    times, vertices, states = read_trajectory(write(tmp_path, text))
    assert times.tolist() == [0.0, 0.5]
    assert vertices == ["a", "b"]
    assert states.tolist() == [[1.0, 2.0], [1.5, 2.5]]


def test_reader_nan_cell_is_not_missing(tmp_path):
    _, _, states = read_trajectory(write(tmp_path, GOOD.replace("2.5", "nan")))
    assert np.isnan(states[1, 1])
    assert states[~np.isnan(states)].tolist() == [1.0, 2.0, 1.5]


def test_reader_merges_one_time_written_two_ways(tmp_path):
    text = "t,vertex,u\n1.0,a,1.0\n1.00,b,2.0\n"
    times, vertices, states = read_trajectory(write(tmp_path, text))
    assert times.tolist() == [1.0]
    assert vertices == ["a", "b"]
    assert states.tolist() == [[1.0, 2.0]]


def chunked_lines(tmp_path):
    """A valid trajectory CSV of about 320 KiB, five or more 64 KiB chunks."""
    g = build_path(20)
    states = np.arange(1000 * 20).reshape(1000, 20) / 8.0
    out = write_trajectory(Trajectory(g, np.arange(1000) / 4.0, states),
                           tmp_path / "big.csv")
    assert out.stat().st_size > 5 * (1 << 16)
    return out, out.read_text().splitlines(keepends=True), states


def test_reader_across_chunks(tmp_path):
    out, _, states = chunked_lines(tmp_path)
    times, vertices, got = read_trajectory(out)
    assert times.tolist() == (np.arange(1000) / 4.0).tolist()
    assert vertices == list(build_path(20).vertices)
    assert np.array_equal(got, states)


def test_reader_takes_a_sample_in_another_vertex_order_by_label(tmp_path):
    """A vertex column that leaves the first sample's order is looked up
    cell by cell, in a short file and deep in a chunked one."""
    text = "t,vertex,u\n0.0,a,1.0\n0.0,b,2.0\n0.5,b,3.0\n0.5,a,4.0\n0.9,a,5.0\n0.9,b,6.0\n"
    times, vertices, states = read_trajectory(write(tmp_path, text))
    assert times.tolist() == [0.0, 0.5, 0.9]
    assert vertices == ["a", "b"]
    assert states.tolist() == [[1.0, 2.0], [4.0, 3.0], [5.0, 6.0]]
    out, lines, want = chunked_lines(tmp_path)
    lines[10004], lines[10005] = lines[10005], lines[10004]
    out.write_text("".join(lines))
    _, vertices, got = read_trajectory(out)
    assert vertices == list(build_path(20).vertices)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fault, message", [
    (lambda lines: lines.insert(17001, "12.5,x3\n"),
     "line 17002: expected t,vertex,u, got 2 fields"),
    (lambda lines: lines.insert(17001, "\n"),
     "line 17002: expected t,vertex,u, got a blank line"),
    (lambda lines: lines.__setitem__(19000, "249.95,x1,oops\n"),
     "line 19001: value 'oops' is not a number"),
    (lambda lines: lines.append(lines[5]),
     "line 20002: second cell for t=0.0, vertex 'x13'"),
    (lambda lines: lines.__delitem__(19990),
     "no cell for t=249.75, vertex 'x18'"),
], ids=["2-fields", "blank", "value", "duplicate", "missing"])
def test_reader_errors_deep_in_a_chunked_file(tmp_path, fault, message):
    out, lines, _ = chunked_lines(tmp_path)
    fault(lines)
    out.write_text("".join(lines))
    with pytest.raises(ValueError, match=message):
        read_trajectory(out)


def test_reader_peak_memory_is_bounded_by_the_file_size(tmp_path):
    """60k rows of short cells: reading them in 64 KiB chunks peaks near 3x
    the file size; splitting the whole file at once peaks near 12x."""
    g = build_path(40)
    rng = np.random.default_rng(3)
    states = rng.integers(0, 64, (1500, 40)) / 8.0
    out = write_trajectory(Trajectory(g, np.arange(1500) / 100.0, states),
                           tmp_path / "mem.csv")
    size = out.stat().st_size
    tracemalloc.start()
    try:
        _, _, got = read_trajectory(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, states)
    assert peak < 4 * size, f"peak {peak} B for a {size} B file"


def bits_to_floats(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


QNAN, QNAN_1 = bits_to_floats(0x7FF8000000000000, 0x7FF8000000000001)


@pytest.mark.parametrize("column", [
    [0.0, -0.0, 0.0, -0.0, -0.0],
    [QNAN, QNAN_1, QNAN, -QNAN, 1.0],
    [2.5] * 5,
], ids=["signed-zero", "nan-payloads", "held"])
def test_writer_formats_a_cell_again_when_its_bits_change(tmp_path, column):
    """Cells are reused while their bits hold: 0.0 == -0.0, yet their texts
    differ, so a sign flip must be written; a vertex beside it moves.  The
    same column as residuals, whose texts are formatted once per 64-bit
    pattern, must keep its patterns apart."""
    g = build_path(2)
    states = np.column_stack([column, np.arange(5.0)])
    traj = Trajectory(g, np.arange(5) / 4.0, states, np.arange(1, 6) / 4.0,
                      np.array(column))
    out = write_trajectory(traj, tmp_path / "run.csv")
    assert (out.read_text(), (tmp_path / "run.mass.csv").read_text()) \
        == reference_csvs(traj)


def test_writer_compares_across_its_blocks(tmp_path):
    """Rows are compared a block at a time; a cell that changes, or holds,
    at the first row of a block is compared with the last row before it."""
    g = build_path(3)
    rows = scenario._WRITE_BLOCK // 3
    states = np.zeros((3 * rows + 2, 3))
    states[rows:, 0] = -0.0                 # flips at the first row of block 2
    states[2 * rows - 1:, 1] = 1.0          # changes at the last row of block 2
    states[:, 2] = np.arange(len(states)) // 7
    traj = Trajectory(g, np.arange(len(states)) / 8.0, states)
    out = write_trajectory(traj, tmp_path / "run.csv")
    assert out.read_text() == reference_csvs(traj)[0]


@st.composite
def repeating_trajectories(draw):
    """Drawn trajectories whose rows mostly repeat the row before, cell by
    cell, as a growing pile's do: the writer's reuse of cell texts is the
    common case here."""
    traj = draw(drawn_trajectories())
    states = traj.states.copy()
    for i in range(1, len(states)):
        held = draw(st.lists(st.booleans(), min_size=states.shape[1],
                             max_size=states.shape[1]))
        states[i, held] = states[i - 1, held]
    return Trajectory(traj.graph, traj.times, states, traj.step_times,
                      traj.mass_residuals)


@PROPERTY
@given(repeating_trajectories())
def test_writer_bytes_where_rows_repeat(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("csv") / "run.csv"
    write_trajectory(traj, out)
    assert out.read_bytes() == reference_csvs(traj)[0].encode("utf-8")
    times, _, states = read_trajectory(out)
    assert same_floats(times, traj.times)
    assert same_floats(states, traj.states)


# labels may hold every line break but "\n" and "\r": rows end at "\n" only
ODD_LABELS = ["a\x0bb", "c\x0c", "\x1cd", "e\x85", "f\u2028g"]


def test_labels_with_other_line_breaks_round_trip(tmp_path):
    g = build_graph([(a, b, 1.0) for a, b in zip(ODD_LABELS, ODD_LABELS[1:])])
    states = np.arange(15.0).reshape(3, 5)
    out = write_trajectory(Trajectory(g, np.arange(3) / 2.0, states),
                           tmp_path / "run.csv")
    assert out.read_text(encoding="utf-8") == reference_csvs(
        Trajectory(g, np.arange(3) / 2.0, states))[0]
    times, vertices, got = read_trajectory(out)
    assert vertices == list(g.vertices)
    assert times.tolist() == [0.0, 0.5, 1.0]
    assert np.array_equal(got, states)


def test_malformed_row_after_odd_labels_names_its_line(tmp_path):
    g = build_graph([(a, b, 1.0) for a, b in zip(ODD_LABELS, ODD_LABELS[1:])])
    out = write_trajectory(Trajectory(g, np.arange(3) / 2.0, np.ones((3, 5))),
                           tmp_path / "run.csv")
    lines = out.read_text(encoding="utf-8").split("\n")
    lines.insert(12, "0.5,x")               # after two samples of odd labels
    out.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="line 13: expected t,vertex,u, got 2 fields "
                                         "in '0.5,x'"):
        read_trajectory(out)


def test_reader_times_interleaved_keep_first_seen_order(tmp_path):
    """Time cells are looked up once per run of equal cells; runs of one
    cell, and a time that comes back after another, read as before."""
    text = "t,vertex,u\n0.5,a,1.0\n0.0,a,2.0\n0.5,b,3.0\n0.0,b,4.0\n"
    times, vertices, states = read_trajectory(write(tmp_path, text))
    assert times.tolist() == [0.5, 0.0]
    assert vertices == ["a", "b"]
    assert states.tolist() == [[1.0, 3.0], [2.0, 4.0]]
