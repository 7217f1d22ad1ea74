"""Time integrators: p-Laplacian flows, the two slope-constrained growth
models, collapse of unstable data, and the convergence experiments.

All schemes are proximal/projected backward Euler with a fixed step, run by
one driver: growth and collapse differ only in the source (f(t) against the
rescaled state v/t), and the p-flows only in the step map.  The
exact solutions of the growth models are piecewise linear in time, so the
global error is O(dt) and concentrated at the critical times where the
active edge set changes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .calculus import _check_p, edge_gaps
from .graph import WeightedGraph, field_values, nu_norm
from .proximal import ConstraintSet, DykstraProjector, is_stable, \
    max_relative_slope, resolvent_p

__all__ = [
    "SourceSchedule",
    "Trajectory",
    "TruncationError",
    "solve_p_flow",
    "solve_growth",
    "solve_collapse",
    "converge_p_experiment",
    "collapse_via_p_experiment",
]

# the most steps a time grid may hold: the grid is built in full before the
# first step, so T/dt is refused beyond this.  time_grid peaks at 16 MB per
# million steps and _integrate's Python floats of it take 32 MB more
MAX_STEPS = 10_000_000

# an edge counts as binding when its gap is within this many projection
# tolerances of the bound; activation flips are recorded as events
_EVENT_BAND = 10.0

# the most state cells (steps x vertices) one block holds: its rows are kept
# until they are certified
_FREE_CELLS = 1 << 15

# the room rule: the fewest steps a growth block that holds a multiplier
# must be able to take before its source field changes or the cell budget
# ends it.  On graphs above 1024 vertices (2^15 / n < 32 rows) growth thus
# keeps single steps, whose project() costs less than a held row there
_HELD_AFTER = 32


class TruncationError(RuntimeError):
    """The active support reached the guard band of a truncated lattice."""


@dataclass(frozen=True)
class SourceSchedule:
    """Piecewise-constant-in-time vertex source f(t, .).

    Segments are (t_start, t_end, values); f(t) is the field of the segment
    containing t and zero outside all segments.  Segment ends are open so
    adjacent segments do not overlap.  The fields are read-only, and one
    zero field is shared by every time outside all segments.
    """

    graph: WeightedGraph
    segments: tuple[tuple[float, float, np.ndarray], ...]
    _zero: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = []
        for t0, t1, vals in self.segments:
            t0, t1 = float(t0), float(t1)
            if not (t0 < t1):
                raise ValueError(f"segment [{t0}, {t1}) is empty")
            segs.append((t0, t1, _read_only(field_values(self.graph, vals))))
        segs.sort(key=lambda s: s[0])
        for (s0, e0, _), (s1, e1, _) in zip(segs, segs[1:]):
            if s1 < e0 - 1e-15:
                raise ValueError(f"source segments [{s0}, {e0}) and "
                                 f"[{s1}, {e1}) overlap")
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "_zero",
                           _read_only(np.zeros(self.graph.n_vertices)))

    @classmethod
    def zero(cls, graph: WeightedGraph) -> "SourceSchedule":
        return cls(graph, ())

    @classmethod
    def constant(cls, graph: WeightedGraph, values) -> "SourceSchedule":
        return cls(graph, ((0.0, math.inf, values),))

    def __call__(self, t: float) -> np.ndarray:
        return self.piece(t)[0]

    def piece(self, t: float) -> tuple[np.ndarray, float]:
        """(f(t), t_end): f is this same field on all of [t, t_end)."""
        for t0, t1, vals in self.segments:
            if t0 <= t < t1:
                return vals, t1
        # no segment holds t, so none starting at or before t reaches past it
        return self._zero, next((t0 for t0, _, _ in self.segments if t0 > t),
                                math.inf)

    def boundaries(self) -> list[float]:
        out = set()
        for t0, t1, _ in self.segments:
            out.add(t0)
            if math.isfinite(t1):
                out.add(t1)
        return sorted(out)


def _read_only(vals: np.ndarray) -> np.ndarray:
    """A read-only copy of a field."""
    vals = vals.copy()
    vals.flags.writeable = False
    return vals


@dataclass
class Trajectory:
    """Ordered (time, state) samples plus per-step bookkeeping.

    states[k] is the vertex field at times[k].  step_times/mass_residuals
    hold one entry per integrator step: the residual of the discrete mass
    balance over that step.  events lists (time, edge, "activated" |
    "deactivated") markers for slope constraints switching state.
    """

    graph: WeightedGraph
    times: np.ndarray
    states: np.ndarray
    step_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    mass_residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    events: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if not np.all(np.diff(self.times) > 0):  # also refuses NaN times
            raise ValueError("sample times must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float, atol: float = 1e-9) -> np.ndarray:
        """State at a sampled time (nearest sample within atol)."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > atol:
            raise KeyError(f"no sample within {atol} of t={t}")
        return self.states[k]

    def first_time(self, vertex, threshold: float, slack: float = 1e-9) -> float:
        """First sampled time with state[vertex] >= threshold - slack."""
        col = self.graph.vertex_id(vertex)
        hits = np.flatnonzero(self.states[:, col] >= threshold - slack)
        if len(hits) == 0:
            raise ValueError(f"{vertex!r} never reaches {threshold}")
        return float(self.times[hits[0]])


def time_grid(t_start: float, t_end: float, dt: float,
              breakpoints=()) -> np.ndarray:
    """Step grid from t_start to t_end with fixed dt, split at breakpoints.

    Within each span the step count is rounded when dt (nearly) divides the
    span so that critical times are hit exactly; otherwise the last step of
    the span is shortened.  A grid asking for more than MAX_STEPS steps
    is refused before anything is built.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not t_end > t_start:
        raise ValueError("need t_end > t_start")
    steps = (t_end - t_start) / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"dt: T/dt asks for {steps:.6g} steps, "
                         f"at most {MAX_STEPS}")
    marks = [t_start]
    for b in sorted(set(float(b) for b in breakpoints)):
        if t_start + 1e-12 < b < t_end - 1e-12:
            marks.append(b)
    marks.append(t_end)
    times = [[t_start]]
    for a, b in zip(marks, marks[1:]):
        span = b - a
        m = span / dt
        exact_fit = abs(m - round(m)) < 1e-9 * max(1.0, m)
        steps = max(1, int(round(m))) if exact_fit else int(math.ceil(m - 1e-12))
        h = span / steps if exact_fit else dt
        times += [a + np.arange(1, steps) * h, [b]]
    return np.concatenate(times)


def _integrate(g: WeightedGraph, u: np.ndarray, grid: np.ndarray, source,
               step, guard_limit: float, sample_every: int) -> Trajectory:
    """The backward-Euler driver shared by every solver.

    Step n maps u to step(u + h * f, h) with h the step length and f the
    drive at t_n: source(t_n) of a SourceSchedule, or, where source is
    None, the collapse drive u / t_n.  step is a map (z, h) -> new state,
    or a DykstraProjector, which steps by projecting z.  Each step checks
    |u| <= guard_limit on the guard band and records the nu-mass residual
    of the step.  With a projector, slope constraints that switch between
    binding and free are recorded as events.  The state is kept at steps
    that are multiples of sample_every and at the last step.

    With a projector, runs of steps on which the active list holds are
    taken as blocks by DykstraProjector.hold, and the first step a block
    refuses goes through the single-step path.  A block holds at most
    _FREE_CELLS state cells and runs to the end of the grid (collapse,
    whenever a multiplier is held) or of the source field (growth).
    Growth takes a block on every step: at once while no multiplier is
    held (free flight), and while one is held where the field and the
    cell budget leave room for _HELD_AFTER steps (the room rule).  A
    block's residuals are formed at once, silently, with np.vecdot, whose
    rows are deg.dot's dot products bit for bit; where one is not finite,
    the block's residuals are formed again row by row with the single
    step's calls, which warn as single steps do.  Its events and samples
    are taken row by row, so every output, error and numpy warning is the
    one single steps would give, bit for bit.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    if source is not None and source.graph is not g:
        raise ValueError("source schedule belongs to a different graph")
    proj = step if isinstance(step, DykstraProjector) else None
    advance = step if proj is None else lambda z, h: proj.project(z)
    steps = len(grid) - 1
    kept = list(range(0, steps, sample_every)) + [steps]
    states = np.empty((len(kept), g.n_vertices))
    states[0] = u
    slot = 1
    deg = g.degrees
    guard = list(g.guard_index)
    residuals = np.empty(steps)
    events: list = []
    threshold = None if proj is None else proj.K.bounds - _EVENT_BAND * proj.tol
    binding = None if proj is None else np.abs(edge_gaps(g, u)) >= threshold
    times = grid.tolist()  # Python floats: no numpy scalar arithmetic per step
    cap = max(1, _FREE_CELLS // g.n_vertices)
    n = 0
    while n < steps:
        k = m = 0
        # blocks: collapse while a multiplier is held, growth on every step
        # that the room rule allows
        held = proj is not None and proj.holds_multipliers()
        if held and source is None:
            fv, m = None, min(cap, steps - n)
        elif proj is not None and source is not None \
                and (not held or cap >= _HELD_AFTER):
            fv, end = source.piece(times[n])
            m = min(bisect_left(times, end, n, steps) - n, cap)
            if held and m < _HELD_AFTER:
                m = 0  # too few steps left in the field to pay for a block
        if m:
            k, rows, moved, edges = proj.hold(u, grid[n:n + m + 1], fv,
                                              guard, guard_limit)
        if k:
            # the single step's residuals, all k at once: a vecdot row is the
            # dot product deg.dot takes, bit for bit; a held step's drive is
            # that of the row before it
            with np.errstate(all="ignore"):
                drive_mass = deg.dot(fv) if source is not None \
                    else np.vecdot(rows[:k] / grid[n:n + k, None], deg)
                block = np.vecdot(np.diff(rows[:k + 1], axis=0), deg) \
                    - np.diff(grid[n:n + k + 1]) * drive_mass
            if not np.isfinite(block).all():
                # formed again with the single step's own calls, which warn
                # alike: every warning comes with a residual that is not
                # finite
                drives = [fv] * k if source is not None \
                    else rows[:k] / grid[n:n + k, None]
                block = [float(deg.dot(d) - h * deg.dot(fv)) for d, h, fv in
                         zip(np.diff(rows[:k + 1], axis=0),
                             np.diff(grid[n:n + k + 1]).tolist(), drives)]
            residuals[n:n + k] = block
            now = moved[:k] >= threshold[edges]
            flips = now != np.vstack([binding[edges], now[:-1]])
            for r, c in zip(*np.nonzero(flips)):
                kind = "activated" if now[r, c] else "deactivated"
                events.append((times[n + r + 1], g.edges[edges[c]], kind))
            binding[edges] = now[-1]
            last = bisect_right(kept, n + k, slot)
            states[slot:last] = rows[np.array(kept[slot:last], dtype=np.intp) - n]
            slot = last
            u = rows[k].copy()
            n += k
        if m and k == m:
            continue
        t0, t1 = times[n], times[n + 1]
        h = t1 - t0
        fv = u / t0 if source is None else source(t0)
        new = advance(u + h * fv, h)
        for i in guard:
            if abs(new[i]) > guard_limit:
                raise TruncationError(
                    "truncation too small: the active support reached the "
                    f"guard band at t={t1!r} (|u| = {abs(new[i]):.3e} "
                    f"at {g.vertices[i]!r})")
        residuals[n] = float(deg.dot(new - u) - h * deg.dot(fv))
        u = new
        if proj is not None:
            now = proj.abs_gaps >= threshold
            if now.tobytes() != binding.tobytes():
                for e in np.flatnonzero(now != binding):
                    kind = "activated" if now[e] else "deactivated"
                    events.append((t1, g.edges[e], kind))
                binding = now
        n += 1
        if n % sample_every == 0 or n == steps:
            states[slot] = u
            slot += 1
    return Trajectory(g, grid[kept], states, grid[1:], residuals, events)


def solve_growth(g: WeightedGraph, K: ConstraintSet, u0, f: SourceSchedule,
                 T: float, dt: float, tol: float = 1e-10,
                 sample_every: int = 1) -> Trajectory:
    """Projected backward Euler for the slope-constrained growth model.

    Parameters
    ----------
    g, K : graph and the stable set to project onto.
    u0 : initial datum; must be stable for K.
    f : piecewise-constant source schedule, sampled at the left endpoint of
        every step (the grid is split at segment boundaries).
    T, dt : final time and step size.
    tol : the projector's tolerance, fixed for the whole run.
    sample_every : keep every k-th state (and the last one).

    Returns
    -------
    Trajectory with the kept samples, per-step mass residuals, and
    activation events.
    """
    proj = DykstraProjector(g, K, tol)
    u = field_values(g, u0).copy()
    if not is_stable(u, K, 1e-8):
        raise ValueError("initial datum not stable for the constraint set")
    return _integrate(g, u, time_grid(0.0, T, dt, f.boundaries()), f, proj,
                      0.0, sample_every)


def solve_collapse(g: WeightedGraph, K: ConstraintSet, u0, dt: float,
                   tol: float = 1e-10,
                   sample_every: int = 1) -> tuple[np.ndarray, Trajectory]:
    """Collapse of an unstable datum through the rescaled projected flow.

    With L the maximal relative slope of u0, integrates the projected flow
    driven by the source v/t (evaluated at the step start) from
    v(1/L) = u0/L up to t = 1 and returns (v(1), trajectory).  A datum that
    is already stable (L <= 1) is returned unchanged with a single-sample
    trajectory.
    """
    proj = DykstraProjector(g, K, tol)
    u0v = field_values(g, u0).copy()
    L = max_relative_slope(u0v, K)
    if L <= 1.0:
        grid, v = np.array([1.0]), u0v
    else:  # start at tau = 1/L from u0 * tau
        grid, v = time_grid(1.0 / L, 1.0, dt), (1.0 / L) * u0v
    traj = _integrate(g, v, grid, None, proj, 0.0, sample_every)
    return traj.final_state(), traj


def solve_p_flow(g: WeightedGraph, p: float, K: ConstraintSet, u0,
                 f: SourceSchedule, T: float, dt: float, tol: float = 1e-10,
                 sample_every: int = 1) -> Trajectory:
    """Backward Euler for the p-Laplacian flow u' = Delta_p u + f of the
    p-energy of K, whose p -> infinity limit is the growth model in K.

    Each step is one resolvent evaluation with lambda equal to the step
    length.  Its Newton iteration starts from z + (h / h') (v' - z'), the
    last step's correction v' - z' rescaled from its length h' to h (the
    first step starts from z): the correction moves by O(h) per step, so
    Newton mostly needs one solve.  The smooth flow has no finite
    propagation speed, so on truncated lattices the guard check allows
    magnitudes up to 1e-12.  p must be finite and >= 2.
    """
    _check_p(p)
    last = None  # (z, v, h) of the previous step

    def step(z, h):
        nonlocal last
        start = None if last is None else z + (h / last[2]) * (last[1] - last[0])
        v = resolvent_p(g, p, K, h, z, tol=tol, start=start)
        last = (z, v, h)
        return v

    return _integrate(
        g, field_values(g, u0).copy(), time_grid(0.0, T, dt, f.boundaries()),
        f, step, 1e-12, sample_every)


def converge_p_experiment(g: WeightedGraph, K: ConstraintSet, u0, f: SourceSchedule,
                          p_list, T: float, dt: float,
                          tol: float = 1e-10) -> list[tuple[float, float]]:
    """sup-in-time nu-norm gap between the p-flows of K and their limit, the
    growth model in K.

    Runs the growth model once and one p-flow per entry of the increasing
    p_list, comparing states at the shared step times.
    """
    p_list = list(p_list)
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ValueError("p_list must be increasing")
    limit = solve_growth(g, K, u0, f, T, dt, tol=tol)
    out = []
    for p in p_list:
        flow = solve_p_flow(g, p, K, u0, f, T, dt, tol=tol)
        err = max(nu_norm(g, v - w) for v, w in zip(flow.states, limit.states))
        out.append((float(p), err))
    return out


def collapse_via_p_experiment(g: WeightedGraph, K: ConstraintSet, u0, p: float,
                              t_probe_list, dt: float) -> list[tuple[float, float]]:
    """Distance of the source-free p-flow to the collapse limit at probe times."""
    probes = sorted(float(t) for t in t_probe_list)
    if not probes or probes[0] <= 0:
        raise ValueError("probe times must be positive")
    u_inf, _ = solve_collapse(g, K, u0, dt)
    flow = solve_p_flow(g, p, K, u0, SourceSchedule.zero(g), probes[-1], dt)
    return [(t, nu_norm(g, flow.state_at(t, atol=dt) - u_inf)) for t in probes]
