"""Moving least squares interpolation and the near-boundary correction step.

A locally weighted polynomial is fitted over trusted neighbor nodes and
evaluated at a target node.  The basis is centered at the target and scaled
by the support radius, so the moment matrix stays well conditioned.

In a forecast the correction supplies the value of every fluid node
outside B, the nodes fluid in every snapshot: the basis is built on B and
is 0 everywhere else.  A node the correction leaves uncorrected reads 0.

This module holds the program's one local fit: the k-d-tree stencil
search (``_kth_d2``, ``_balls``) and the shape-function kernel
(``mls._shape_functions``), through which the fit is used.  The value at
node j is linear in the field, v_j = a_j . f[S_j], where S_j is the node's
stencil (the trusted nodes strictly inside its radius h_j) and
a_j = W P M^-1 e_0 are its shape functions.  S_j, h_j and a_j depend on
the grid, the configuration and the trusted set, not on the field or the
query time.  A ``StencilCache`` keeps them for one trusted set
(``fluid_now & window_all_fluid`` in a forecast) and fits each node the
first time it is exposed; a different trusted set replaces the contents.
Each RomModel owns one cache, which is not saved with the model, so a
process that loads a model for a single forecast (``mbrom forecast``) always
starts cold.  Cold and warm caches give the same bits: every sum over a
stencil runs over that stencil alone.

The Lebesgue constant Lambda_j = sum |a_j| bounds how much the fit can
amplify errors in the trusted values.  It is reported per corrected node
(``CorrectionReport.lebesgue``, which ``mbrom forecast`` writes to
``correction_report.csv``), and a correction with any Lambda_j above
``LEBESGUE_WARN`` = 1e3 warns once.  A direct solve for the fit's
coefficients agrees with a_j . f[S_j] to rounding, within
1e-12 Lambda_j max|f| at each node.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .data import SpatialGrid, _require_finite_fields

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

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


def _poly_terms(dim: int, order: int) -> list[tuple[int, ...]]:
    """Monomial exponent tuples of total degree <= order."""
    if dim == 1:
        return [(p,) for p in range(order + 1)]
    return [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]


def _poly_matrix(pts: np.ndarray, terms: list[tuple[int, ...]]) -> np.ndarray:
    """Monomials ``terms`` evaluated at each row of ``pts``: (N, n_terms)."""
    order = max(sum(e) for e in terms)
    pows = []
    for x in pts.T:
        pows.append([np.ones_like(x)])
        for _ in range(order):
            pows[-1].append(pows[-1][-1] * x)
    return np.column_stack(
        [reduce(operator.mul, (pows[d][p] for d, p in enumerate(e))) for e in terms]
    )


def _term_name(e: tuple[int, ...]) -> str:
    axes = "xy"
    parts = [
        axes[d] if p == 1 else f"{axes[d]}^{p}"
        for d, p in enumerate(e)
        if p > 0
    ]
    return "*".join(parts) if parts else "1"


def _tree(pts: np.ndarray) -> cKDTree:
    """k-d tree over ``pts`` for ``_kth_d2`` and ``_balls``.

    The sliding-midpoint split (Maneewongvatana & Mount 1999) builds faster
    than the median split on grids; query distances do not depend on the
    split.  scipy.spatial loads on first use, not with the package.
    """
    from scipy.spatial import cKDTree

    return cKDTree(pts, balanced_tree=False, compact_nodes=False)


def _d2(pts: np.ndarray, idx: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distance from each target to its nodes ``idx`` (T, K) of ``pts``.

    The bits are those of ``np.sum((pts[idx] - targets[:, None, :]) ** 2,
    axis=2)``: with at most two coordinates the sum is one addition.  It is
    formed a coordinate column at a time, which skips numpy's slow gather of
    point rows and its reduction over a length-2 axis.
    """
    return reduce(
        operator.add, [(p.take(idx) - x[:, None]) ** 2 for p, x in zip(pts.T, targets.T)]
    )


def _balls(
    tree: cKDTree, pts: np.ndarray, targets: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of ``pts`` (indexed by ``tree``) within distance ``r`` of each target.

    Returns (T, K) indices and squared distances, each row ordered by the
    squared distance summed over axes, ties to the lower index, and padded
    with d2 = inf.  The query radius is widened by 1e-9 so that rounding in
    the tree cannot drop a node; callers test the exact d2 themselves.  The
    tree's index lists go into the padded array in one pass.
    """
    balls = tree.query_ball_point(targets, r * (1.0 + 1e-9), return_sorted=True)
    sizes = np.fromiter(map(len, balls), np.intp, len(balls))
    slot = np.arange(sizes.max()) < sizes[:, None]
    idx = np.zeros(slot.shape, dtype=np.intp)
    idx[slot] = np.fromiter(itertools.chain.from_iterable(balls), np.intp, int(sizes.sum()))
    d2 = np.where(slot, _d2(pts, idx, targets), np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)


_PAD = 8  # candidates fetched past the k-th nearest, to hold its distance ties


def _kth_d2(tree: cKDTree, pts: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Each target's k-th smallest exact squared distance to ``pts``.

    Row for row this is ``np.sort(d2)[k - 1]`` of a brute-force scan.  One
    tree query fetches the k + ``_PAD`` nearest by tree distance; the cut is
    the k-th of them widened by 1e-9, so it holds every node that ties with
    or undercuts the k nearest, and the answer is the k-th smallest exact d2
    inside it.  A row whose last candidate is still inside the cut (a tie
    group running past the pad) may miss nodes, and goes through the ball
    search out to the cut instead.
    """
    n = pts.shape[0]
    k = min(k, n)
    m = min(n, k + _PAD)
    dist, idx = (a.reshape(len(targets), m) for a in tree.query(targets, k=m))
    cut = dist[:, k - 1] * (1.0 + 1e-9)
    d2 = np.where(dist <= cut[:, None], _d2(pts, idx, targets), np.inf)
    kth = np.sort(d2, axis=1)[:, k - 1]
    short = np.flatnonzero((dist[:, -1] <= cut) & (m < n))
    if short.size:
        kth[short] = _balls(tree, pts, targets[short], dist[short, k - 1])[1][:, k - 1]
    return kth


def _shape_functions(
    offsets: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    order: int,
) -> np.ndarray:
    """Shape functions of weighted least-squares polynomial fits over a batch
    of stencils stored end to end: the one local fit of the MLS correction.

    Stencil t is ``counts[t]`` consecutive rows of ``offsets`` (positions
    relative to its target, divided by its length scale) and of ``weights``.
    Returns one a_k per row such that sum_k a_k f_k over a stencil is the
    fit's value at its target: a = W P M^-1 e_0, with P the centered, scaled
    monomials up to ``order`` and M = P^T W P, factored by Cholesky.  A fit
    whose smallest pivot is at most 1e-6 of its largest, or whose M is not
    positive definite, does not resolve every term: ValueError names the
    direction the worst-conditioned fit of its chunk cannot resolve.  Every
    sum runs over one stencil's rows alone, so a node's shape functions are
    the same bits whichever batch it is fitted in.
    """
    dim = offsets.shape[1]
    terms = _poly_terms(dim, order)
    terms2 = _poly_terms(dim, 2 * order)
    # M_il = sum_k w_k x_k^(e_i + e_l): the weighted moments up to twice the order
    index = {e: k for k, e in enumerate(terms2)}
    pair = np.array([[index[tuple(map(sum, zip(ei, el)))] for el in terms] for ei in terms])
    T = counts.size
    starts = np.concatenate([[0], np.cumsum(counts)])
    e0 = np.zeros((T, len(terms), 1))
    e0[:, 0] = 1.0
    shape = np.empty(starts[-1])
    step = max(1, 4096 // int(counts.max()))  # ~4096 design-matrix rows at a time
    for a in range(0, T, step):
        b = min(a + step, T)
        rows = slice(starts[a], starts[b])
        Q = _poly_matrix(offsets[rows], terms2)
        P = Q[:, pair[0]]  # the monomials e_0 + e_l = e_l
        mm = np.add.reduceat(Q * weights[rows, None], starts[a:b] - starts[a])[:, pair]
        try:
            L = np.linalg.cholesky(mm)
            d = np.diagonal(L, axis1=1, axis2=2)
            weak = not (d.min(axis=1) ** 2 > 1e-12 * d.max(axis=1) ** 2).all()
        except np.linalg.LinAlgError:  # some fit is not positive definite
            weak = True
        if weak:
            evals, evecs = np.linalg.eigh(mm)
            t = np.argmin(evals[:, 0] / evals[:, -1])
            worst = np.argmax(np.abs(evecs[t, :, 0]))
            raise ValueError(
                f"rank-deficient moment matrix: neighbors do not resolve the "
                f"{_term_name(terms[worst])} direction"
            )
        y = np.linalg.solve(L, e0[a:b])
        coef = np.linalg.solve(L.transpose(0, 2, 1), y)[:, :, 0]
        shape[rows] = weights[rows] * np.sum(P * np.repeat(coef, counts[a:b], axis=0), axis=1)
    return shape


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
        _require_finite_fields(self)
        if self.order < 0:
            raise ValueError("polynomial order must be >= 0")
        if self.kernel_len is not None and self.kernel_len <= 0:
            raise ValueError("kernel length must be positive")
        if self.min_neighbor_factor < 1:
            raise ValueError("min_neighbor_factor must be >= 1")
        if self.max_growths < 0:
            raise ValueError("max_growths must be >= 0")

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
            d2 = _kth_d2(self.tree, self.hist_pts, grid.coords[new], need)
            rung = np.searchsorted(self.ladder, np.sqrt(d2), side="right")
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

    ``exposed`` holds indices (or a boolean mask) of nodes whose values the
    snapshots did not supply; ``fluid_history`` flags nodes that carried real
    data throughout the window and remain in the fluid at the query time.
    Support radii come from the ladder h0, 1.5 h0, 1.5^2 h0, ...
    (``max_growths`` steps; h0 is the configured kernel length, default 3x
    grid spacing): each node takes the first rung strictly beyond its
    distance to its ``required_neighbors``-th nearest trusted node, and fits
    over the trusted nodes inside that radius.  Nodes beyond the last rung
    are left untouched and reported.

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
