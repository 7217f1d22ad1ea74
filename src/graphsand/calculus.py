"""Nonlocal calculus on canonical edges: gaps, fluxes, the p-Laplacian and
the p-energy.

The p-energy is read from the per-edge slope bounds c of a constraint set:
E_p(u) = sum_e w_e c_e^2 |g_e / c_e|^p / p, whose p -> infinity limit is the
indicator of {|g_e| <= c_e}.  Every stable set thus has its p-flow: c = 1
gives the plain degree-normalized operator, c = 1/sqrt(w) the weighted one
carrying w^(p/2) per edge.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .graph import WeightedGraph, field_values

if TYPE_CHECKING:
    from .proximal import ConstraintSet

__all__ = [
    "edge_gaps",
    "scatter",
    "conductance",
    "p_flux",
    "p_energy",
    "p_laplacian",
]


def _bounds_on(g: WeightedGraph, K: ConstraintSet) -> np.ndarray:
    """K's slope bounds, refused unless K was built on g."""
    if K.graph is not g:
        raise ValueError("constraint set belongs to a different graph")
    return K.bounds


def _check_p(p: float):
    """Refuse a p that is not finite and at least 2 (nan and inf included)."""
    if not 2.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 2, got {p}")


def conductance(gaps: np.ndarray, p: float, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """w * |g / c|^(p-2) per edge, the one edge power of the p-energy: the
    flux is cond * g, the energy sum(cond * g^2) / p and the Newton Hessian
    weight (p-1) * cond.  |g|^0 == 1.  Where the power overflows it is inf:
    callers evaluate it, and what they form from it, under one
    np.errstate(over="ignore")."""
    return w * np.abs(gaps / c) ** (p - 2.0)


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


def p_flux(gaps: np.ndarray, p: float, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """w * |g / c|^(p-2) g per edge."""
    with np.errstate(over="ignore"):
        return conductance(gaps, p, w, c) * gaps


def p_energy(gaps: np.ndarray, p: float, w: np.ndarray, c: np.ndarray) -> float:
    """sum over canonical edges of w * c^2 * |g / c|^p / p."""
    with np.errstate(over="ignore"):
        return float((conductance(gaps, p, w, c) * gaps * gaps).sum() / p)


def p_laplacian(g: WeightedGraph, u, p: float, K: ConstraintSet) -> np.ndarray:
    """Degree-normalized p-Laplacian of the p-energy of K; p is real,
    finite and >= 2."""
    _check_p(p)
    gaps = edge_gaps(g, field_values(g, u))
    flux = p_flux(gaps, p, g.weights, _bounds_on(g, K))
    if not np.isfinite(flux).all():
        raise FloatingPointError(
            f"p-Laplacian overflow at p={p}: slope magnitudes too large")
    return scatter(g, flux) / g.degrees
