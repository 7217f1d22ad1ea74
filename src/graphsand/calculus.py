"""Nonlocal calculus on canonical edges: gaps, fluxes, the p-Laplacian and
the p-energy.

Two model variants run through every operator here: "G" uses the plain edge
weights, "w" additionally carries a sqrt(w)^(p-2) factor so the weights enter
the dynamics directly rather than only through the degrees.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph, field_values

__all__ = [
    "edge_gaps",
    "scatter",
    "conductance",
    "p_flux",
    "p_energy",
    "p_laplacian",
]

MODELS = ("G", "w")


def conductance(gaps: np.ndarray, p: float, wf: np.ndarray) -> np.ndarray:
    """wf * |g|^(p-2) per edge, the one edge power of the p-energy: the flux
    is c * g, the energy sum(c * g^2) / p and the Newton Hessian weight
    (p-1) * c.  |g|^0 == 1, and overflow gives inf rather than a warning."""
    with np.errstate(over="ignore"):
        return wf * np.abs(gaps) ** (p - 2.0)


def model_weight_factor(g: WeightedGraph, p: float, model: str) -> np.ndarray:
    """Per-edge factor multiplying |grad u|^(p-2) grad u in the flux."""
    if model == "G":
        return g.weights
    if model == "w":
        return conductance(np.sqrt(g.weights), p, g.weights)
    raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")


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
    with np.errstate(over="ignore"):
        return conductance(gaps, p, wf) * gaps


def p_energy(gaps: np.ndarray, p: float, wf: np.ndarray) -> float:
    """sum over canonical edges of wf * |g|^p / p."""
    with np.errstate(over="ignore"):
        return float(np.sum(p_flux(gaps, p, wf) * gaps) / p)


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
