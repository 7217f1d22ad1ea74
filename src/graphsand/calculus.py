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
    "p_flux",
    "p_energy",
    "p_laplacian",
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
