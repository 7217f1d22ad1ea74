"""Nonlocal calculus: gradient, divergence, Laplacians, and the p-energies.

Two model variants run through every operator here: "G" uses the plain edge
weights, "w" additionally carries a sqrt(w)^(p-2) factor so the weights enter
the dynamics directly rather than only through the degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, field_values

__all__ = [
    "EdgeField",
    "edge_gaps",
    "scatter",
    "p_flux",
    "p_energy",
    "nonlocal_gradient",
    "divergence",
    "laplacian",
    "p_laplacian",
    "energy_Jp",
    "integration_by_parts_residual",
]

MODELS = ("G", "w")

# Magnitudes below this are flushed to zero before taking logs so that
# |g|^(p-1) neither produces -inf logs nor survives as denormal noise.
_TINY = 1e-300


def signed_power(gaps: np.ndarray, q: float) -> np.ndarray:
    """sign(g) * |g|**q computed in log form; q > 0."""
    gaps = np.asarray(gaps, dtype=float)
    out = np.zeros_like(gaps)
    mask = np.abs(gaps) > _TINY
    if np.any(mask):
        with np.errstate(over="ignore"):
            out[mask] = np.sign(gaps[mask]) * np.exp(q * np.log(np.abs(gaps[mask])))
    return out


def abs_power(gaps: np.ndarray, q: float) -> np.ndarray:
    """|g|**q in log form with the convention |g|**0 == 1."""
    gaps = np.asarray(gaps, dtype=float)
    if q == 0.0:
        return np.ones_like(gaps)
    out = np.zeros_like(gaps)
    mask = np.abs(gaps) > _TINY
    if np.any(mask):
        with np.errstate(over="ignore"):
            out[mask] = np.exp(q * np.log(np.abs(gaps[mask])))
    return out


def model_weight_factor(g: WeightedGraph, p: float, model: str) -> np.ndarray:
    """Per-edge factor multiplying |grad u|^(p-2) grad u in the flux."""
    if model == "G":
        return g.weights
    if model == "w":
        return abs_power(np.sqrt(g.weights), p - 2) * g.weights
    raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")


@dataclass(frozen=True)
class EdgeField:
    """Value per ordered adjacent pair: column 0 holds (x, y), column 1 (y, x)
    for each canonical edge (x, y)."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n_edges, 2):
            raise ValueError(f"edge field shape {vals.shape} does not match "
                             f"({self.graph.n_edges}, 2)")
        object.__setattr__(self, "values", vals)

    def get(self, x, y) -> float:
        i, j = self.graph.vertex_id(x), self.graph.vertex_id(y)
        for k, (a, b) in enumerate(self.graph.edge_index):
            if (a, b) == (i, j):
                return float(self.values[k, 0])
            if (b, a) == (i, j):
                return float(self.values[k, 1])
        raise KeyError(f"({x!r}, {y!r}) is not an oriented edge")


def edge_gaps(g: WeightedGraph, vals: np.ndarray) -> np.ndarray:
    """u(y) - u(x) on every canonical edge (x, y)."""
    ends = vals[g.edge_index]  # one gather: cheaper than two column views
    return ends[:, 1] - ends[:, 0]


def scatter(g: WeightedGraph, flux: np.ndarray) -> np.ndarray:
    """Per-vertex sum of +flux over edges leaving x minus flux over edges
    entering x (canonical orientation)."""
    n = g.n_vertices
    return np.bincount(g.edge_index[:, 0], weights=flux, minlength=n) \
        - np.bincount(g.edge_index[:, 1], weights=flux, minlength=n)


def p_flux(gaps: np.ndarray, p: float, wf: np.ndarray) -> np.ndarray:
    """wf * |g|^(p-2) g per edge."""
    return wf * signed_power(gaps, p - 1.0)


def p_energy(gaps: np.ndarray, p: float, wf: np.ndarray) -> float:
    """sum over canonical edges of wf * |g|^p / p."""
    return float(np.sum(wf * abs_power(gaps, float(p))) / p)


def nonlocal_gradient(g: WeightedGraph, u) -> EdgeField:
    """grad u(x, y) = u(y) - u(x) on both orientations of every edge."""
    forward = edge_gaps(g, field_values(g, u))
    return EdgeField(g, np.stack([forward, -forward], axis=1))


def divergence(g: WeightedGraph, z: EdgeField) -> np.ndarray:
    """div z(x) = (1 / 2 d_x) * sum_{y~x} (z(x,y) - z(y,x)) w_xy."""
    if z.graph is not g:
        raise ValueError("edge field belongs to a different graph")
    skew = (z.values[:, 0] - z.values[:, 1]) * g.weights
    return scatter(g, skew) / (2.0 * g.degrees)


def laplacian(g: WeightedGraph, u) -> np.ndarray:
    """Normalized graph Laplacian (1/d_x) sum_y w_xy (u(y) - u(x))."""
    flux = g.weights * edge_gaps(g, field_values(g, u))
    return scatter(g, flux) / g.degrees


def p_laplacian(g: WeightedGraph, u, p: float, model: str = "G") -> np.ndarray:
    """Degree-normalized p-Laplacian for either model; p is real, >= 2."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    gaps = edge_gaps(g, field_values(g, u))
    flux = p_flux(gaps, p, model_weight_factor(g, p, model))
    if not np.all(np.isfinite(flux)):
        raise FloatingPointError(
            f"p-Laplacian overflow at p={p}: slope magnitudes too large")
    return scatter(g, flux) / g.degrees


def energy_Jp(g: WeightedGraph, u, p: float, model: str = "G") -> float:
    """The p-energy (1/2p) sum over ordered pairs of |grad u|^p times the
    model weight factor; raises on overflow rather than saturating."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    # both orientations contribute equally: the canonical-edge sum over p
    total = p_energy(edge_gaps(g, field_values(g, u)), p,
                     model_weight_factor(g, p, model))
    if not np.isfinite(total):
        raise FloatingPointError(f"p-energy overflow at p={p}")
    return total


def integration_by_parts_residual(g: WeightedGraph, u, v, p: float,
                                  model: str = "G") -> float:
    """|<Delta_p u, v>_nu + (1/2) sum |grad u|^(p-2) grad u grad v * wf|.

    Identically zero in exact arithmetic; used as a test statistic.
    """
    uv = field_values(g, u)
    vv = field_values(g, v)
    lhs = float(np.dot(p_laplacian(g, uv, p, model) * g.degrees, vv))
    wf = model_weight_factor(g, p, model)
    # ordered-pair sum: both orientations give the same product
    rhs = float(np.sum(p_flux(edge_gaps(g, uv), p, wf) * edge_gaps(g, vv)))
    return abs(lhs + rhs)
