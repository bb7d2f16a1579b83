"""Intrusive POD-Galerkin baseline for the 1D viscous Burgers equation.

Projecting the Burgers operator onto the retained modes yields a quadratic
ODE system for the mode coefficients: constant, linear and quadratic
operators assembled with finite-difference derivatives and grid quadrature.
Serves as the reference the nonintrusive model is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SpatialGrid
from .pod import PodBasis

__all__ = [
    "GalerkinOperators",
    "assemble_operators",
    "integrate",
]


def _d1(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative along the last axis; one-sided at the ends."""
    g = np.empty_like(f)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dx)
    g[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dx)
    g[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dx)
    return g


def _d2(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative along the last axis; one-sided at the ends."""
    g = np.empty_like(f)
    g[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / dx**2
    g[..., 0] = (2.0 * f[..., 0] - 5.0 * f[..., 1] + 4.0 * f[..., 2] - f[..., 3]) / dx**2
    g[..., -1] = (2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]) / dx**2
    return g


@dataclass(frozen=True)
class GalerkinOperators:
    """Constant, linear and quadratic projected Burgers operators.

    ``linear[i, k]`` multiplies a_i in the equation for a_k;
    ``quadratic[i, j, k]`` multiplies a_i a_j.
    """

    constant: np.ndarray
    linear: np.ndarray
    quadratic: np.ndarray
    reynolds: float

    def rhs(self, a: np.ndarray) -> np.ndarray:
        return (
            self.constant
            + a @ self.linear
            + np.einsum("ijk,i,j->k", self.quadratic, a, a)
        )


def assemble_operators(
    b: PodBasis, mean: np.ndarray, grid: SpatialGrid, reynolds: float
) -> GalerkinOperators:
    """Project the Burgers operator onto the retained modes.

    Spatial derivatives of the mean and the modes use second-order central
    differences (one-sided at boundaries); inner products use the grid
    quadrature.  Requires a uniform 1D grid.
    """
    if grid.dim != 1:
        raise ValueError("Galerkin baseline is 1D only")
    if grid.n_nodes < 5:
        raise ValueError("need at least 5 grid nodes for the FD stencils")
    x = grid.coords[:, 0]
    dxs = np.diff(x)
    if not np.allclose(dxs, dxs[0], rtol=1e-8):
        raise ValueError("Galerkin baseline needs a uniform grid")
    dx = float(dxs[0])
    R = b.retained
    mean = np.asarray(mean, dtype=float).ravel()
    phi = b.modes[:R]
    mean_x, mean_xx = _d1(mean, dx), _d2(mean, dx)
    phi_x, phi_xx = _d1(phi, dx), _d2(phi, dx)

    # (f, phi_k) for a stack of f: the products and pairwise sums of
    # inner_product, one row at a time
    def project(f):
        return np.sum(f[..., None, :] * phi * grid.quad_weights, axis=-1)

    constant = project(mean_xx / reynolds - mean * mean_x)
    linear = project(phi_xx / reynolds - phi * mean_x - mean * phi_x)
    quadratic = project(-phi[:, None] * phi_x)
    return GalerkinOperators(
        constant=constant, linear=linear, quadratic=quadratic, reynolds=reynolds
    )


def integrate(
    ops: GalerkinOperators,
    a0: np.ndarray,
    t_span: tuple[float, float],
    dt: float,
    t_eval: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 trajectory of the projected ODEs.

    Integrates segment by segment so every requested output time is hit
    exactly (the step within a segment is shrunk to divide it evenly).
    Returns (times, coefficients) with one row per output time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.array([t1])
    t_eval = np.asarray(t_eval, dtype=float).ravel()
    if np.any(t_eval < t0) or np.any(t_eval > t1 + 1e-12):
        raise ValueError("t_eval outside t_span")

    a = np.asarray(a0, dtype=float).ravel().copy()
    out = np.empty((t_eval.shape[0], a.shape[0]))
    t_now = t0
    for idx, te in enumerate(t_eval):
        seg = te - t_now
        if seg > 0:
            n = max(1, int(np.ceil(seg / dt - 1e-12)))
            h = seg / n
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(n):
                    k1 = ops.rhs(a)
                    k2 = ops.rhs(a + 0.5 * h * k1)
                    k3 = ops.rhs(a + 0.5 * h * k2)
                    k4 = ops.rhs(a + h * k3)
                    a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t_now += h
                    if not np.all(np.isfinite(a)):
                        raise RuntimeError(
                            f"Galerkin trajectory blew up at t={t_now:.6g}"
                        )
            t_now = te
        out[idx] = a
    return t_eval, out
