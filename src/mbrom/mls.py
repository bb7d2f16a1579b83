"""Moving least squares interpolation and the near-boundary correction step.

A locally weighted polynomial is fitted over trusted neighbor nodes and
evaluated at a target node.  The basis is centered at the target and scaled
by the support radius, so the moment matrix stays well conditioned.

In a forecast the correction supplies the value of every fluid node
outside B, the nodes fluid in every snapshot: the basis is built on B and
is 0 everywhere else.  A node the correction leaves uncorrected reads 0.

This module holds the program's one local fit: the cell-grid stencil
search (``_Buckets``, numpy alone) and the shape-function kernel
(``_shape_functions``, called by ``StencilCache`` alone).  ``correct_field``
is the one entry, for a forecast's field and a lone field alike.  The value at
node j is linear in the field, v_j = a_j . f[S_j], where S_j is the node's
stencil (the trusted nodes strictly inside its radius h_j) and
a_j = W P M^-1 e_0 are its shape functions.  S_j, h_j and a_j depend on
the grid, the configuration and the trusted set, not on the field or the
query time.  A forecast's field is mean + c @ modes, so v_j is the node's
fitted mean plus c @ its fitted modes: K + 1 numbers per node that depend
on no more than a_j does.  A ``StencilCache`` keeps them for one trusted
set (``fluid_now & window_all_fluid`` in a forecast) and one mean and
modes, and fits each node the first time it is exposed; another trusted
set, mean or modes replaces the contents.  Each RomModel owns one cache,
which is not saved with the model, so a process that loads a model for a
single forecast (``mbrom forecast``) always starts cold.  Cold and warm
caches give the same bits: every sum over a stencil runs over that
stencil alone, and the K + 1 numbers of a node do not depend on the
batch it was fitted in.  The kernel works term-major: each monomial is one
contiguous row over a chunk of stencil rows, the moments are per-stencil
sums along those rows, and only the shape functions' last sum runs along a
stencil row, as it did when the monomials were columns.

The Lebesgue constant Lambda_j = sum |a_j| bounds how much the fit can
amplify errors in the trusted values.  It is reported per corrected node
(``CorrectionReport.lebesgue``, which ``mbrom forecast`` writes to
``correction_report.csv``), and a correction with any Lambda_j above
``LEBESGUE_WARN`` = 1e3 warns once.  A direct solve for the fit's
coefficients agrees with a_j . f[S_j] to rounding, within
1e-12 Lambda_j max|f| at each node.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .data import SpatialGrid, _require_finite_fields

__all__ = [
    "MlsConfig",
    "CorrectionReport",
    "wendland_c2",
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


@lru_cache(maxsize=None)
def _moment_layout(dim: int, order: int) -> tuple[list, list, np.ndarray]:
    """The fit's monomials up to ``order``, the moments' up to twice it,
    and ``pair``: the index in the second list of each product of two of
    the first.  Built once per (dim, order) and shared, so read-only."""
    terms = _poly_terms(dim, order)
    terms2 = _poly_terms(dim, 2 * order)
    index = {e: k for k, e in enumerate(terms2)}
    pair = np.array([[index[tuple(map(sum, zip(ei, el)))] for el in terms] for ei in terms])
    pair.setflags(write=False)
    return terms, terms2, pair


def _term_name(e: tuple[int, ...]) -> str:
    axes = "xy"
    parts = [
        axes[d] if p == 1 else f"{axes[d]}^{p}"
        for d, p in enumerate(e)
        if p > 0
    ]
    return "*".join(parts) if parts else "1"


def _d2(pts: np.ndarray, idx: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Squared distance from each row of ``at`` (E, dim) to node ``idx`` (E,)
    of ``pts``.

    The bits are those of ``np.sum((pts[idx] - at) ** 2, axis=1)``: with at
    most two coordinates the sum is one addition.  It is formed a coordinate
    column at a time, which skips numpy's slow gather of point rows and its
    reduction over a length-2 axis.
    """
    return reduce(operator.add, [(p.take(idx) - x) ** 2 for p, x in zip(pts.T, at.T)])


_BLOCK = 1 << 16  # candidate entries (targets x padded width) gathered at a time


class _Buckets:
    """Fixed-radius neighbor search over points sorted into square cells
    (Bentley, Stanat & Williams 1977), in numpy alone.

    The points are sorted by cell, row by row of cells, with one stable
    argsort, and ``starts`` bounds each cell's run: the cells of one row
    that a box around a target overlaps are one slice of the sorted points.
    A summed-area table of the cell counts gives the number of points in any
    box of cells without touching them.  A 1-D grid is one row of cells.
    The cells only pick candidates: every decision is made on the exact
    squared distances of ``_d2``.
    """

    def __init__(self, pts: np.ndarray, side: float) -> None:
        n = len(pts)
        self.pts = pts
        plane = self._plane(pts)
        self.origin = plane.min(axis=1)
        extent = plane.max(axis=1) - self.origin
        while (extent[0] // side + 1) * (extent[1] // side + 1) > 4 * n + 64:
            side *= 2.0  # at most about 4 cells a point
        self.side = side
        # cell coordinates round at about 1e-16 of the extent; a box widened
        # by 1e-12 of it still holds every point its half-width reaches
        self.slack = 1e-12 * extent.max() / side
        self.shape = (extent / side).astype(np.intp) + 1
        cells = ((plane - self.origin[:, None]) / side).astype(np.intp)
        cell = cells[0] * self.shape[1] + cells[1]
        self.order = cell.argsort(kind="stable")
        counts = np.bincount(cell, minlength=self.shape.prod())
        self.starts = np.zeros(counts.size + 1, dtype=np.intp)
        counts.cumsum(out=self.starts[1:])
        table = np.zeros(self.shape + 1, dtype=np.intp)
        counts.reshape(self.shape).cumsum(axis=0, out=table[1:, 1:])
        table[1:, 1:].cumsum(axis=1, out=table[1:, 1:])
        self.table = table.ravel()

    @staticmethod
    def _plane(x: np.ndarray) -> np.ndarray:
        """(2, T) cell-plane coordinates: a 1-D point lies on row 0."""
        plane = np.zeros((2, len(x)))
        plane[2 - x.shape[1] :] = x.T
        return plane

    def _boxes(
        self, targets: np.ndarray, r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells [a, b) along both axes, (T, m, 2) each, that a box of
        half-width ``r`` (m,) around each target overlaps, and the number of
        points in them, (T, m).  The half-width is widened by 1e-9 of itself,
        as a tree query widens its radius, and by ``slack`` cells."""
        # in cells; rounding can only widen b = floor(x + reach + 1), the
        # end past the last cell floor(x + reach)
        reach = np.multiply.outer(r * ((1.0 + 1e-9) / self.side) + self.slack, (-1.0, 1.0))
        reach[:, 1] += 1.0
        x = (self._plane(targets).T - self.origin) / self.side
        ends = np.floor(x[:, None, None, :] + reach[..., None])
        ends = np.minimum(np.maximum(ends, 0.0), self.shape).astype(np.intp)
        t = self.table.take(ends[..., 0, None] * (self.shape[1] + 1) + ends[..., None, :, 1])
        counts = t[..., 1, 1] - t[..., 0, 1] - t[..., 1, 0] + t[..., 0, 0]
        return ends[..., 0, :], ends[..., 1, :], counts

    def _gather(
        self, targets: np.ndarray, a: np.ndarray, b: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every point in the cells [a, b) (T, 2) of each target, ``counts``
        of them, with its squared distance.

        Returns (T, K) indices and squared distances, each row ordered by
        the squared distance, ties to the lower index, and padded with index
        n and d2 = inf.  Only the points themselves get a distance.
        """
        rows = b[:, 0] - a[:, 0]
        owner = np.arange(len(targets)).repeat(rows)
        row = (a[:, 0] - rows.cumsum() + rows).repeat(rows) + np.arange(owner.size)
        row *= self.shape[1]
        first = self.starts[row + a[owner, 1]]
        sizes = self.starts[row + b[owner, 1]] - first
        pos = (first - sizes.cumsum() + sizes).repeat(sizes) + np.arange(sizes.sum())
        real = np.arange(counts.max()) < counts[:, None]
        idx = np.full(real.shape, len(self.order))
        idx[real] = self.order[pos]
        idx.sort(axis=1)
        d2 = np.full(real.shape, np.inf)
        d2[real] = _d2(self.pts, idx[real], targets.repeat(counts, axis=0))
        # ties to the lower index: idx rises along each row, and the stable
        # sort keeps that order; d2 >= 0 sorts as its int64 bits, faster
        order = d2.view(np.int64).argsort(axis=1, kind="stable")
        order += np.arange(0, idx.size, idx.shape[1])[:, None]
        return idx.take(order), d2.take(order)

    def stencils(
        self, targets: np.ndarray, ladder: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each target's rung and stencil.

        The rung is the first i with at least ``k`` points strictly inside
        ``ladder[i]`` (``ladder.size``: none), that is
        ``searchsorted(ladder, sqrt(kth_d2), "right")`` with kth_d2 the k-th
        smallest squared distance.  The stencil is the points strictly
        inside the rung's radius, nearest first, ties to the lower index.
        Returns (rung, fitted, idx, d, sizes): the fitted targets' stencils
        lie end to end in ``idx`` (point indices) and ``d`` (distances), in
        the order of ``fitted``, with ``sizes`` points each.

        A gather at rung g settles every target whose k-th nearest candidate
        lies strictly inside ladder[g]: the box holds every point within
        ladder[g], so that candidate is the k-th nearest point, and the
        stencil is among the candidates.  A target whose largest box holds
        fewer than k points is never gathered.  The first gather is at the
        first rung whose box holds 3k/2 points, which settles most targets
        at once: a box holds a third or so more points than its inscribed
        disk.  A target it does not settle has its k-th nearest point
        beyond ladder[g] and no farther than its k-th nearest candidate, so
        its rung lies in (g, found], and a second gather at rung
        min(found, last) settles it or shows it lies beyond the last rung:
        no target is gathered more than twice.  A gather takes at most about
        ``_BLOCK`` entries (targets x widest box) at a time.
        """
        T, L = len(targets), ladder.size
        a, b, counts = self._boxes(targets, ladder)
        g = np.minimum((counts < 1.5 * k).sum(axis=1), L - 1)
        rung = np.full(T, L)
        empty = np.zeros(0, dtype=np.intp)
        parts = [(empty, empty, np.zeros(0), empty)]
        pending = np.flatnonzero(counts[:, -1] >= k)
        while pending.size:
            last = g[pending]
            width = counts[pending, last]
            step = max(1, _BLOCK // int(width.max()))
            for start in range(0, pending.size, step):
                chunk, gi = pending[start : start + step], last[start : start + step]
                wide = width[start : start + step]
                idx, d2 = self._gather(targets[chunk], a[chunk, gi], b[chunk, gi], wide)
                found = np.searchsorted(ladder, np.sqrt(d2[:, k - 1]), side="right")
                g[chunk] = np.minimum(found, L - 1)
                done = found <= gi
                rung[chunk[done]] = found[done]
                d = np.sqrt(d2[done])
                inside = d < ladder[found[done], None]
                parts.append((chunk[done], idx[done][inside], d[inside], inside.sum(axis=1)))
            pending = pending[(rung[pending] == L) & (g[pending] > last)]
        return rung, *(np.concatenate(p) for p in zip(*parts))


def _shape_functions(
    offsets: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    order: int,
) -> np.ndarray:
    """Shape functions of weighted least-squares polynomial fits over a batch
    of stencils stored end to end: the one local fit of the MLS correction.

    Stencil t is ``counts[t]`` consecutive columns of ``offsets`` (dim,
    rows: positions relative to its target, divided by its length scale)
    and entries of ``weights``.  Returns one a_k per row such that
    sum_k a_k f_k over a stencil is the fit's value at its target:
    a = W P M^-1 e_0, with P the centered, scaled monomials up to ``order``
    and M = P^T W P, factored by Cholesky.  A fit whose smallest pivot is at
    most 1e-6 of its largest, or whose M is not positive definite, does not
    resolve every term: ValueError names the direction the worst-conditioned
    fit of its chunk cannot resolve.  Every sum runs over one stencil's rows
    alone, so a node's shape functions are the same bits whichever batch it
    is fitted in.

    The work is term-major, ~4096 rows at a time: each coordinate's powers
    up to 2 ``order`` are contiguous rows (repeated products), the moment
    monomials are products of two such rows, P is gathered from them once,
    they are weighted in place, and ``np.add.reduceat`` along the rows gives
    the moments.  These are the products and per-stencil sums of a
    row-major design matrix, so the bits are those of the column-stack form
    (``tests/local_fit_oracles.column_stack_shape_functions``).
    """
    # M_il = sum_k w_k x_k^(e_i + e_l): the weighted moments up to twice the order
    dim, top = offsets.shape[0], 2 * order
    terms, terms2, pair = _moment_layout(dim, order)
    T = counts.size
    starts = np.concatenate([[0], np.cumsum(counts)])
    e0 = np.zeros((T, len(terms), 1))
    e0[:, 0] = 1.0
    shape = np.empty(starts[-1])
    step = max(1, 4096 // int(counts.max()))  # ~4096 design-matrix rows at a time
    for a in range(0, T, step):
        b = min(a + step, T)
        rows = slice(starts[a], starts[b])
        w = weights[rows]
        # pw[d, p] = x_d^p by repeated products, one contiguous row each
        pw = np.empty((dim, top + 1, w.size))
        pw[:, 0] = 1.0
        for p in range(1, top + 1):
            np.multiply(pw[:, p - 1], offsets[:, rows], out=pw[:, p])
        if dim == 1:
            Q = pw[0]  # terms2 are the powers 0..top
        else:  # terms2 run (a, 0..top-a) for a = 0..top: one product per a
            Q = np.empty((len(terms2), w.size))
            k = 0
            for e in range(top + 1):
                np.multiply(pw[0, e], pw[1, : top + 1 - e], out=Q[k : k + top + 1 - e])
                k += top + 1 - e
        P = Q[pair[0]]  # the monomials e_0 + e_l = e_l
        Q *= w
        mm = np.add.reduceat(Q, starts[a:b] - starts[a], axis=1).T[:, pair]
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
        # row-major (rows, n) products, so each row's sum runs as it always has
        pc = np.repeat(coef, counts[a:b], axis=0)
        np.multiply(P.T, pc, out=pc)
        shape[rows] = w * pc.sum(axis=1)
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
        for name in ("order", "max_growths"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.kernel_len is not None and self.kernel_len <= 0:
            raise ValueError("kernel_len must be positive")
        if self.min_neighbor_factor < 1:
            raise ValueError("min_neighbor_factor must be >= 1")
        if self.max_growths < 0:
            raise ValueError("max_growths must be >= 0")

    def n_terms(self, dim: int) -> int:
        return len(_poly_terms(dim, self.order))

    def required_neighbors(self, dim: int) -> int:
        return int(np.ceil(self.min_neighbor_factor * self.n_terms(dim)))


@dataclass
class CorrectionReport:
    """Per-node record of what the correction step did.

    ``rows`` are (node, h, before, after); ``lebesgue`` holds each corrected
    node's Lebesgue constant sum |a_j|, and ``nodes`` the corrected nodes as
    an array, both in the order of ``rows``.  A report made from ``rows``
    alone takes ``nodes`` from them.
    """

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    uncorrected: list[int] = field(default_factory=list)
    lebesgue: list[float] = field(default_factory=list)
    nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.nodes is None:
            self.nodes = np.array([r[0] for r in self.rows], dtype=int)


class StencilCache:
    """Fitted values of a field's mean and modes over one trusted-node set,
    fitted node by node on first use.

    For each node a correction has asked about, the cache holds its support
    radius h (inf: no rung of the ladder holds enough trusted nodes), its
    Lebesgue constant, and in ``rows`` the fit's value at the node of the
    mean and of each of the K modes (K + 1 numbers; K = 0 for a lone field).
    They come from the node's stencil (the trusted nodes strictly inside h,
    nearest first, distance ties to the lower index) and its shape
    functions, which are used once, when the node is fitted, and not kept.
    The stencils are found in a cell grid of the trusted nodes
    (``_Buckets``, cells of side h0/2), built when the contents are
    replaced; all the nodes newly exposed in one correction are searched
    together and fitted in one call of the kernel.
    None of this depends on the coefficients, so a later correction over
    the same trusted set only combines each node's row with them.  Another
    trusted set, grid, configuration, mean or modes replaces the contents;
    the mean and the modes are told apart by identity, so an array changed
    in place between corrections leaves stale rows.  Each RomModel owns one
    (``mls_cache``), which is not saved with the model.  Corrections write
    to the cache without a lock, so one cache (one model) must not serve
    several threads at once.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None

    def update(
        self,
        exposed: np.ndarray,
        history: np.ndarray,
        grid: SpatialGrid,
        cfg: MlsConfig,
        mean: np.ndarray,
        modes: np.ndarray | None,
    ) -> None:
        """Make sure every node of ``exposed`` has an entry for ``history``
        and the field terms ``mean`` and ``modes``."""
        key = self._key
        if (
            key is None
            or key[0] is not grid
            or key[1] != cfg
            or key[3] is not mean
            or key[4] is not modes
            or not np.array_equal(key[2], history)
        ):
            self._reset(history, grid, cfg, mean, modes)
        new = exposed[np.isnan(self.h[exposed])]
        if new.size == 0:
            return
        rung = np.full(new.size, self.ladder.size)
        if self.buckets is not None:
            need = cfg.required_neighbors(grid.dim)
            rung, fitted, sel, d, counts = self.buckets.stencils(
                grid.coords[new], self.ladder, need
            )
            if fitted.size:
                self._fit(new[fitted], self.ladder[rung[fitted]], sel, d, counts, grid, cfg)
        self.h[new] = np.append(self.ladder, np.inf)[rung]  # only once the fits have succeeded

    def _fit(self, nodes, h, sel, d, counts, grid, cfg) -> None:
        hk = np.repeat(h, counts)
        at = np.repeat(grid.coords[nodes].T, counts, axis=1)
        offsets = (self.hist_pts.T.take(sel, axis=1) - at) / hk
        shape = _shape_functions(offsets, wendland_c2(d / hk), counts, cfg.order)
        first = np.cumsum(counts) - counts
        self.lebesgue[nodes] = np.add.reduceat(np.abs(shape), first)
        stencil = self.hist_idx[sel]
        # one 1-D reduction per term: numpy's reduceat along the rows of a
        # 2-D array is about 5x slower
        self.rows[nodes] = np.column_stack(
            [np.add.reduceat(f[stencil] * shape, first) for f in self.terms]
        )

    def _reset(
        self,
        history: np.ndarray,
        grid: SpatialGrid,
        cfg: MlsConfig,
        mean: np.ndarray,
        modes: np.ndarray | None,
    ) -> None:
        self._key = (grid, cfg, history.copy(), mean, modes)
        h0 = cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()
        ladder = [h0]
        for _ in range(cfg.max_growths):
            ladder.append(ladder[-1] * 1.5)
        self.ladder = np.asarray(ladder)
        self.hist_idx = np.flatnonzero(history)
        self.hist_pts = grid.coords[self.hist_idx]
        enough = self.hist_idx.size >= cfg.required_neighbors(grid.dim)
        self.buckets = _Buckets(self.hist_pts, h0 / 2) if enough else None
        self.terms = [np.asarray(mean, dtype=float), *(() if modes is None else modes)]
        self.h = np.full(grid.n_nodes, np.nan)  # nan: not looked at yet
        self.lebesgue = np.full(grid.n_nodes, np.nan)
        self.rows = np.zeros((grid.n_nodes, len(self.terms)))


def _node_indices(exposed, n_nodes: int) -> np.ndarray:
    """``exposed`` (distinct indices, or a boolean mask over the nodes) as
    indices; a mask of another length, or an index that is not an integer,
    lies outside [0, n_nodes) or repeats, is a ValueError."""
    exposed = np.asarray(exposed)
    if exposed.dtype == bool:
        if exposed.size != n_nodes:
            raise ValueError(
                f"exposed mask has {exposed.size} entries for {n_nodes} nodes"
            )
        return np.flatnonzero(exposed)
    exposed = exposed.ravel()
    if exposed.dtype.kind not in "iuf":
        raise ValueError(f"exposed nodes must be integers, not {exposed.dtype}")
    if exposed.dtype.kind == "f":
        fraction = ~np.isfinite(exposed) | (exposed != np.trunc(exposed))
        if fraction.any():
            raise ValueError(
                f"exposed node {float(exposed[fraction][0])!r} is not an integer"
            )
    outside = (exposed < 0) | (exposed >= n_nodes)
    if outside.any():
        raise ValueError(
            f"exposed node {exposed[outside][0]} is not a node index: the grid "
            f"has nodes 0 to {n_nodes - 1}"
        )
    exposed = exposed.astype(np.intp)
    counts = np.bincount(exposed)
    if (counts > 1).any():
        node = int(np.argmax(counts > 1))
        raise ValueError(f"exposed node {node} is listed {counts[node]} times")
    return exposed


def correct_field(
    field_values: np.ndarray,
    exposed: np.ndarray,
    fluid_history: np.ndarray,
    grid: SpatialGrid,
    cfg: MlsConfig,
    cache: StencilCache | None = None,
    expansion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, CorrectionReport]:
    """Replace values at newly exposed nodes by MLS fits over trusted nodes.

    ``exposed`` holds indices (or a boolean mask over the grid) of nodes
    whose values the snapshots did not supply; ``fluid_history`` flags nodes
    that carried real data throughout the window and remain in the fluid at
    the query time.  A mask of another length, an index outside the grid and
    an exposed node that is also trusted are refused before ``cache`` is
    used.  Support radii come from the ladder h0, 1.5 h0, 1.5^2 h0, ...
    (``max_growths`` steps; h0 is the configured kernel length, default 3x
    grid spacing): each node takes the first rung strictly beyond its
    distance to its ``required_neighbors``-th nearest trusted node, and fits
    over the trusted nodes inside that radius.  Nodes beyond the last rung
    are left untouched and reported.

    ``expansion`` = (mean, modes, coeffs) says that ``field_values`` is
    mean + coeffs @ modes, as ``pod.reconstruct`` makes it.
    The fit is linear in the field, so a node's corrected value is its row
    of fitted mean and modes (``StencilCache.rows``, kept in ``cache``, a
    fresh one when not given) times (1, coeffs).  Without it the field is
    its own mean with no modes: the rows hold one fitted value each.  Every
    other node keeps the bits of ``field_values``.  One warning per call
    names the corrected nodes whose Lebesgue constant exceeds
    ``LEBESGUE_WARN``.
    """
    field_values = np.asarray(field_values, dtype=float)
    fluid_history = np.asarray(fluid_history, dtype=bool).ravel()
    if fluid_history.shape[0] != grid.n_nodes:
        raise ValueError("fluid_history length does not match grid")
    exposed = _node_indices(exposed, grid.n_nodes)
    if np.any(fluid_history[exposed]):
        raise ValueError("exposed set overlaps fluid-history set")

    corrected = field_values.copy()
    if exposed.size == 0:
        return corrected, CorrectionReport()

    mean, modes, coeffs = expansion if expansion is not None else (field_values, None, ())
    cache = StencilCache() if cache is None else cache
    cache.update(exposed, fluid_history, grid, cfg, mean, modes)
    h = cache.h[exposed]
    fit = np.isfinite(h)
    nodes = exposed[fit]
    weights = np.concatenate([[1.0], coeffs])
    new_vals = cache.rows[nodes] @ weights
    lebesgue = cache.lebesgue[nodes]
    corrected[nodes] = new_vals
    report = CorrectionReport(
        rows=list(zip(
            nodes.tolist(), h[fit].tolist(), field_values[nodes].tolist(), new_vals.tolist()
        )),
        uncorrected=exposed[~fit].tolist(),
        lebesgue=lebesgue.tolist(),
        nodes=nodes,
    )
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
