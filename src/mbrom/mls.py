"""Moving least squares interpolation and the near-boundary correction step.

A locally weighted polynomial is fitted over trusted neighbor nodes and
evaluated at a target node.  The basis is centered at the target and scaled
by the support radius, so the moment matrix stays well conditioned and the
fitted value is simply the first coefficient.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .data import FMT, SpatialGrid, _balls, _local_fit, _nearest, _poly_terms

__all__ = [
    "MlsConfig",
    "CorrectionReport",
    "wendland_c2",
    "mls_fit",
    "mls_value",
    "correct_field",
]


def wendland_c2(q: np.ndarray) -> np.ndarray:
    """Compactly supported C2 weight (1-q)^4 (4q+1) on [0, 1)."""
    q = np.asarray(q, dtype=float)
    return np.where(q < 1.0, (1.0 - q) ** 4 * (4.0 * q + 1.0), 0.0)


@dataclass(frozen=True)
class MlsConfig:
    """Polynomial degree, support radius and neighbor requirements.

    ``kernel_len`` of None lets ``correct_field`` seed the radius from the
    grid spacing.  ``min_neighbor_factor`` times the number of polynomial
    terms is the neighbor count required before a fit is attempted; the
    radius is the first of kernel_len x 1.5^i, i = 0..``max_growths``, that
    holds that many trusted nodes strictly inside.
    """

    order: int = 3
    kernel_len: float | None = None
    weight: Callable[[np.ndarray], np.ndarray] = wendland_c2
    min_neighbor_factor: float = 6.0
    max_growths: int = 8

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("polynomial order must be >= 0")
        if self.kernel_len is not None and self.kernel_len <= 0:
            raise ValueError("kernel length must be positive")
        if self.min_neighbor_factor < 1:
            raise ValueError("min_neighbor_factor must be >= 1")
        q = np.linspace(0.0, 0.999, 40)
        w = np.asarray(self.weight(q), dtype=float)
        if np.any(w <= 0) or np.any(np.diff(w) > 1e-12):
            raise ValueError("weight must be positive and nonincreasing on [0,1)")
        if np.any(np.asarray(self.weight(np.array([1.0, 1.3]))) != 0.0):
            raise ValueError("weight must vanish for q >= 1")

    def n_terms(self, dim: int) -> int:
        return len(_poly_terms(dim, self.order))

    def required_neighbors(self, dim: int) -> int:
        return int(np.ceil(self.min_neighbor_factor * self.n_terms(dim)))


def mls_fit(
    xp: np.ndarray,
    points: np.ndarray,
    values: np.ndarray,
    cfg: MlsConfig,
    h: float | None = None,
) -> np.ndarray:
    """Weighted least-squares polynomial coefficients around ``xp``.

    Neighbors must lie within the support radius ``h`` (``cfg.kernel_len``
    when not given).  Returns the coefficient vector in the centered,
    h-scaled monomial basis; its first entry is the fitted value at ``xp``.
    """
    xp = np.atleast_1d(np.asarray(xp, dtype=float)).ravel()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != xp.shape[0]:
        points = points.T
    values = np.asarray(values, dtype=float).ravel()
    dim = xp.shape[0]
    h = cfg.kernel_len if h is None else h
    if h is None or h <= 0:
        raise ValueError("a positive support radius is required")
    terms = _poly_terms(dim, cfg.order)
    need = cfg.required_neighbors(dim)
    if points.shape[0] < need:
        raise ValueError(
            f"{points.shape[0]} neighbors, need at least {need} "
            f"({cfg.min_neighbor_factor} x {len(terms)} terms)"
        )
    d = np.sqrt(np.sum((points - xp) ** 2, axis=1))
    if np.any(d >= h):
        raise ValueError("neighbor outside the support radius")
    w = np.asarray(cfg.weight(d / h), dtype=float)
    return _local_fit(((points - xp) / h)[None], values[None], w[None], terms)[0]


def mls_value(
    xp: np.ndarray,
    points: np.ndarray,
    values: np.ndarray,
    cfg: MlsConfig,
    h: float | None = None,
) -> float:
    """Fitted field value at ``xp`` (first coefficient of the centered fit)."""
    return float(mls_fit(xp, points, values, cfg, h)[0])


@dataclass
class CorrectionReport:
    """Per-node record of what the correction step did."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    uncorrected: list[int] = field(default_factory=list)

    def corrected_nodes(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows], dtype=int)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "h", "before", "after"])
            for node, h, before, after in self.rows:
                writer.writerow([node, FMT % h, FMT % before, FMT % after])


def correct_field(
    field_values: np.ndarray,
    exposed: np.ndarray,
    fluid_history: np.ndarray,
    grid: SpatialGrid,
    cfg: MlsConfig,
) -> tuple[np.ndarray, CorrectionReport]:
    """Replace values at newly exposed nodes by MLS fits over trusted nodes.

    ``exposed`` holds indices (or a boolean mask) of nodes whose values came
    from filled data; ``fluid_history`` flags nodes that carried real data
    throughout the window and remain in the fluid at the query time.  Support
    radii come from the ladder h0, 1.5 h0, 1.5^2 h0, ... (``max_growths``
    steps; h0 is the configured kernel length, default 3x grid spacing): each
    node takes the first rung strictly beyond its distance to its
    ``required_neighbors``-th nearest trusted node, and fits over the trusted
    nodes inside that radius.  Nodes beyond the last rung are left untouched
    and reported.
    """
    field_values = np.asarray(field_values, dtype=float)
    fluid_history = np.asarray(fluid_history, dtype=bool).ravel()
    exposed = np.asarray(exposed)
    if exposed.dtype == bool:
        exposed = np.flatnonzero(exposed)
    exposed = exposed.astype(int).ravel()
    if fluid_history.shape[0] != grid.n_nodes:
        raise ValueError("fluid_history length does not match grid")
    if np.any(fluid_history[exposed]):
        raise ValueError("exposed set overlaps fluid-history set")

    corrected = field_values.copy()
    report = CorrectionReport()
    if exposed.size == 0:
        return corrected, report

    ladder = [cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()]
    for _ in range(cfg.max_growths):
        ladder.append(ladder[-1] * 1.5)
    need = cfg.required_neighbors(grid.dim)
    hist_idx = np.flatnonzero(fluid_history)
    hist_pts = grid.coords[hist_idx]
    xp = grid.coords[exposed]

    rung = np.full(exposed.size, len(ladder))
    if hist_idx.size >= need:
        tree = cKDTree(hist_pts)
        _, d2 = _nearest(tree, hist_pts, xp, need)
        rung = np.searchsorted(ladder, np.sqrt(d2[:, -1]), side="right")
    fit = rung < len(ladder)
    report.uncorrected = exposed[~fit].tolist()
    if not fit.any():
        return corrected, report

    xp = xp[fit]
    h = np.asarray(ladder)[rung[fit]]
    sel, d2 = _balls(tree, hist_pts, xp, h)
    d = np.sqrt(d2)
    w = np.where(d < h[:, None], cfg.weight(d / h[:, None]), 0.0)
    new_vals = _local_fit(
        (hist_pts[sel] - xp[:, None, :]) / h[:, None, None],
        field_values[hist_idx[sel]],
        w,
        _poly_terms(grid.dim, cfg.order),
    )[:, 0]

    nodes = exposed[fit]
    report.rows = [
        (int(j), float(hj), float(field_values[j]), float(v))
        for j, hj, v in zip(nodes, h, new_vals)
    ]
    corrected[nodes] = new_vals
    return corrected, report
