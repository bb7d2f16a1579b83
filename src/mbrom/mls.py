"""Moving least squares interpolation and the near-boundary correction step.

A locally weighted polynomial is fitted over trusted neighbor nodes and
evaluated at a target node.  The basis is centered at the target and scaled
by the support radius, so the moment matrix stays well conditioned.

The fit is used in its shape-function form, through the one local-fit
kernel that the occluded fill shares (``data._shape_functions``).  The value
at node j is linear in the field, v_j = a_j . f[S_j], where S_j is the node's
stencil (the trusted nodes strictly inside its radius h_j) and
a_j = W P M^-1 e_0 are its shape functions.  S_j, h_j and a_j depend on the
grid, the configuration and the trusted set, not on the field or the query
time.  A ``StencilCache`` keeps them for one trusted set
(``fluid_now & window_all_fluid`` in a forecast) and fits each node the
first time it is exposed; a different trusted set replaces the contents.
Each RomModel owns one cache, which is not saved with the model, so a
process that loads a model for a single forecast (``mbrom forecast``) always
starts cold.  Cold and warm caches give the same bits: every sum over a
stencil runs over that stencil alone.

The Lebesgue constant Lambda_j = sum |a_j| bounds how much the fit can
amplify errors in the trusted values.  It is reported per corrected node
(``CorrectionReport.lebesgue``, the ``lebesgue`` column of
``correction_report.csv``), and a correction with any Lambda_j above
``LEBESGUE_WARN`` = 1e3 warns once.  A direct solve for the fit's
coefficients agrees with a_j . f[S_j] to rounding, within
1e-12 Lambda_j max|f| at each node.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
import numpy as np

from .data import FMT, SpatialGrid, _balls, _nearest, _poly_terms, _shape_functions, _tree

__all__ = [
    "MlsConfig",
    "CorrectionReport",
    "wendland_c2",
    "mls_value",
    "correct_field",
    "StencilCache",
    "LEBESGUE_WARN",
]

# A corrected node whose shape functions sum to more than this in absolute
# value can amplify field errors a thousandfold; correct_field warns.
LEBESGUE_WARN = 1e3


def wendland_c2(q: np.ndarray) -> np.ndarray:
    """Compactly supported C2 weight (1-q)^4 (4q+1) on [0, 1)."""
    q = np.asarray(q, dtype=float)
    return np.where(q < 1.0, (1.0 - q) ** 4 * (4.0 * q + 1.0), 0.0)


@dataclass(frozen=True)
class MlsConfig:
    """Polynomial degree, support radius and neighbor requirements; the
    weight is always ``wendland_c2``.

    ``kernel_len`` of None lets ``correct_field`` seed the radius from the
    grid spacing.  ``min_neighbor_factor`` times the number of polynomial
    terms is the neighbor count required before a fit is attempted; the
    radius is the first of kernel_len x 1.5^i, i = 0..``max_growths``, that
    holds that many trusted nodes strictly inside.
    """

    order: int = 3
    kernel_len: float | None = None
    min_neighbor_factor: float = 6.0
    max_growths: int = 8

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("polynomial order must be >= 0")
        if self.kernel_len is not None and self.kernel_len <= 0:
            raise ValueError("kernel length must be positive")
        if self.min_neighbor_factor < 1:
            raise ValueError("min_neighbor_factor must be >= 1")

    def n_terms(self, dim: int) -> int:
        return len(_poly_terms(dim, self.order))

    def required_neighbors(self, dim: int) -> int:
        return int(np.ceil(self.min_neighbor_factor * self.n_terms(dim)))


def mls_value(
    xp: np.ndarray,
    points: np.ndarray,
    values: np.ndarray,
    cfg: MlsConfig,
    h: float | None = None,
) -> float:
    """Fitted field value at ``xp`` from the neighbors ``points``.

    Neighbors must lie within the support radius ``h`` (``cfg.kernel_len``
    when not given).  The value is a . values, with a the shape functions of
    the weighted fit over this one stencil.
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
    need = cfg.required_neighbors(dim)
    if points.shape[0] < need:
        raise ValueError(
            f"{points.shape[0]} neighbors, need at least {need} "
            f"({cfg.min_neighbor_factor} x {cfg.n_terms(dim)} terms)"
        )
    d = np.sqrt(np.sum((points - xp) ** 2, axis=1))
    if np.any(d >= h):
        raise ValueError("neighbor outside the support radius")
    w = wendland_c2(d / h)
    shape = _shape_functions((points - xp) / h, w, np.array([points.shape[0]]), cfg.order)
    return float(np.sum(shape * values))


@dataclass
class CorrectionReport:
    """Per-node record of what the correction step did.

    ``rows`` are (node, h, before, after); ``lebesgue`` holds each corrected
    node's Lebesgue constant sum |a_j|, in the order of ``rows``.
    """

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    uncorrected: list[int] = field(default_factory=list)
    lebesgue: list[float] = field(default_factory=list)

    def corrected_nodes(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows], dtype=int)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "h", "before", "after", "lebesgue"])
            for (node, h, before, after), lam in zip_longest(
                self.rows, self.lebesgue, fillvalue=float("nan")
            ):
                writer.writerow([node, FMT % h, FMT % before, FMT % after, FMT % lam])


class StencilCache:
    """MLS stencils over one trusted-node set, fitted node by node on first use.

    For each node a correction has asked about, the cache holds its support
    radius h (inf: no rung of the ladder holds enough trusted nodes), its
    stencil (the trusted nodes strictly inside h, nearest first, distance
    ties to the lower index), the stencil's shape functions and their
    Lebesgue constant.  None of these depends on the field, so later
    corrections over the same trusted set reuse them and only apply the
    shape functions.  Another trusted set, grid or configuration replaces
    the contents.  Each RomModel owns one (``mls_cache``), which is not saved
    with the model.  Corrections write to the cache without a lock, so one
    cache (one model) must not serve several threads at once.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None

    def update(
        self,
        exposed: np.ndarray,
        history: np.ndarray,
        grid: SpatialGrid,
        cfg: MlsConfig,
    ) -> None:
        """Make sure every node of ``exposed`` has an entry for ``history``."""
        key = self._key
        if key is None or key[0] is not grid or key[1] != cfg or not np.array_equal(
            key[2], history
        ):
            self._reset(history, grid, cfg)
        new = exposed[np.isnan(self.h[exposed])]
        if new.size == 0:
            return
        rung = np.full(new.size, self.ladder.size)
        if self.tree is not None:
            need = cfg.required_neighbors(grid.dim)
            _, d2 = _nearest(self.tree, self.hist_pts, grid.coords[new], need)
            rung = np.searchsorted(self.ladder, np.sqrt(d2[:, -1]), side="right")
        h = np.append(self.ladder, np.inf)[rung]  # inf: beyond the last rung
        fit = np.isfinite(h)
        if fit.any():
            self._fit(new[fit], h[fit], grid, cfg)
        self.h[new] = h  # only once the fits have succeeded

    def _fit(self, nodes, h, grid, cfg) -> None:
        xp = grid.coords[nodes]
        sel, d2 = _balls(self.tree, self.hist_pts, xp, h)
        d = np.sqrt(d2)
        inside = d < h[:, None]
        sel, d = sel[inside], d[inside]
        counts = inside.sum(axis=1)
        hk = np.repeat(h, counts)
        offsets = (self.hist_pts[sel] - np.repeat(xp, counts, axis=0)) / hk[:, None]
        shape = _shape_functions(offsets, wendland_c2(d / hk), counts, cfg.order)
        first = np.cumsum(counts) - counts
        self.start[nodes] = self.shape.size + first
        self.count[nodes] = counts
        self.lebesgue[nodes] = np.add.reduceat(np.abs(shape), first)
        self.stencil = np.concatenate([self.stencil, self.hist_idx[sel]])
        self.shape = np.concatenate([self.shape, shape])

    def _reset(self, history: np.ndarray, grid: SpatialGrid, cfg: MlsConfig) -> None:
        self._key = (grid, cfg, history.copy())
        h0 = cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()
        ladder = [h0]
        for _ in range(cfg.max_growths):
            ladder.append(ladder[-1] * 1.5)
        self.ladder = np.asarray(ladder)
        self.hist_idx = np.flatnonzero(history)
        self.hist_pts = grid.coords[self.hist_idx]
        enough = self.hist_idx.size >= cfg.required_neighbors(grid.dim)
        self.tree = _tree(self.hist_pts) if enough else None
        self.h = np.full(grid.n_nodes, np.nan)  # nan: not looked at yet
        self.start = np.zeros(grid.n_nodes, dtype=int)
        self.count = np.zeros(grid.n_nodes, dtype=int)
        self.lebesgue = np.full(grid.n_nodes, np.nan)
        self.stencil = np.empty(0, dtype=int)
        self.shape = np.empty(0)

    def values(self, nodes: np.ndarray, field_values: np.ndarray) -> np.ndarray:
        """Fitted values a_j . f[S_j] at ``nodes``, which must have stencils."""
        counts = self.count[nodes]
        first = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(self.start[nodes] - first, counts)
        return np.add.reduceat(self.shape[pos] * field_values[self.stencil[pos]], first)


def correct_field(
    field_values: np.ndarray,
    exposed: np.ndarray,
    fluid_history: np.ndarray,
    grid: SpatialGrid,
    cfg: MlsConfig,
    cache: StencilCache | None = None,
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

    The fit is applied through its shape functions, kept in ``cache`` (a
    fresh one when not given) for the next call over the same trusted set.
    One warning per call names the corrected nodes whose Lebesgue constant
    exceeds ``LEBESGUE_WARN``.
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

    cache = StencilCache() if cache is None else cache
    cache.update(exposed, fluid_history, grid, cfg)
    h = cache.h[exposed]
    fit = np.isfinite(h)
    report.uncorrected = exposed[~fit].tolist()
    if not fit.any():
        return corrected, report

    nodes = exposed[fit]
    new_vals = cache.values(nodes, field_values)
    lebesgue = cache.lebesgue[nodes]
    report.rows = list(
        zip(nodes.tolist(), h[fit].tolist(), field_values[nodes].tolist(), new_vals.tolist())
    )
    report.lebesgue = lebesgue.tolist()
    corrected[nodes] = new_vals
    high = lebesgue > LEBESGUE_WARN
    if high.any():
        worst = int(np.argmax(lebesgue))
        warnings.warn(
            f"{int(high.sum())} of {nodes.size} corrected nodes have a Lebesgue "
            f"constant above {LEBESGUE_WARN:g}; the worst, node {int(nodes[worst])}, "
            f"has {lebesgue[worst]:.3g}, so its fit can amplify field errors that much",
            stacklevel=2,
        )
    return corrected, report
