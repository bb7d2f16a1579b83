"""Per-node reference implementation of the MLS correction: one
brute-force neighbor scan and one dense solve per node.

The library batches the correction over a cell-grid search; this loop is
the plain definition it is checked against.  ``_local_fit`` is the batched
coefficient fit the library used before its one shape-function kernel:
``batched_correct_oracle`` is the correction on it, the reference for the
shape-function form to within rounding.  ``column_stack_shape_functions``
is the library's kernel before it worked term-major, a monomial column at a
time: the term-major kernel must give its bits.

``lone_fit`` is not an oracle: it runs the library's correction on one node
from given neighbours, the one path into the fit that the reproduction and
convergence-rate checks take.
"""

import operator
from functools import reduce

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mbrom.data import SpatialGrid
from mbrom.mls import (
    MlsConfig,
    _moment_layout,
    _poly_terms,
    _term_name,
    correct_field,
    wendland_c2,
)


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


def _cholesky_moments(mm: np.ndarray, terms: list[tuple[int, ...]]) -> np.ndarray:
    """Cholesky factors of a (T, n, n) stack of moment matrices.  A weak fit
    (smallest pivot at most 1e-6 of the largest, or not positive definite)
    raises ValueError naming the direction the worst-conditioned fit cannot
    resolve.
    """
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
    return L


def column_stack_shape_functions(
    offsets: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    order: int,
) -> np.ndarray:
    """``mbrom.mls._shape_functions`` as a row-major kernel: each ~4096-row
    chunk's monomials are strided columns of one (rows, n_terms2) matrix,
    joined by ``column_stack``, and the moments are reduced down its
    columns.  Same arguments (``offsets`` is (dim, rows)), same products and
    per-stencil sums, so the same bits and the same rank-deficiency error.
    """
    terms, terms2, pair = _moment_layout(offsets.shape[0], order)
    T = counts.size
    starts = np.concatenate([[0], np.cumsum(counts)])
    e0 = np.zeros((T, len(terms), 1))
    e0[:, 0] = 1.0
    shape = np.empty(starts[-1])
    step = max(1, 4096 // int(counts.max()))  # ~4096 design-matrix rows at a time
    for a in range(0, T, step):
        b = min(a + step, T)
        rows = slice(starts[a], starts[b])
        Q = _poly_matrix(offsets[:, rows].T, terms2)
        P = Q[:, pair[0]]  # the monomials e_0 + e_l = e_l
        mm = np.add.reduceat(Q * weights[rows, None], starts[a:b] - starts[a])[:, pair]
        L = _cholesky_moments(mm, terms)
        y = np.linalg.solve(L, e0[a:b])
        coef = np.linalg.solve(L.transpose(0, 2, 1), y)[:, :, 0]
        shape[rows] = weights[rows] * np.sum(P * np.repeat(coef, counts[a:b], axis=0), axis=1)
    return shape


def _local_fit(
    offsets: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    terms: list[tuple[int, ...]],
) -> np.ndarray:
    """Weighted least-squares polynomial fits around a batch of target nodes.

    ``offsets`` (T, K, dim) are neighbor positions relative to each target,
    already divided by that target's length scale; ``values`` and
    ``weights`` are (T, K), and padding slots carry weight 0.  Returns the
    (T, n) coefficients in the centered, scaled monomial basis; column 0 is
    each fit's value at its target.  The (T, n, n) moment matrices are solved
    by Cholesky; a fit that does not resolve every term raises ValueError
    (``_cholesky_moments``).
    """
    T, K, dim = offsets.shape
    n = len(terms)
    mm = np.empty((T, n, n))
    rhs = np.empty((T, n))
    step = max(1, 4096 // K)  # bounds peak memory: ~4096 design-matrix rows at a time
    for a in range(0, T, step):
        P = _poly_matrix(offsets[a : a + step].reshape(-1, dim), terms).reshape(-1, K, n)
        Pw = P * weights[a : a + step, :, None]
        mm[a : a + step] = np.matmul(Pw.transpose(0, 2, 1), P)
        rhs[a : a + step] = np.einsum("tkn,tk->tn", Pw, values[a : a + step])
    L = _cholesky_moments(mm, terms)
    y = np.linalg.solve(L, rhs[:, :, None])
    return np.linalg.solve(L.transpose(0, 2, 1), y)[:, :, 0]


def brute_stencils(pts, targets, h):
    """Each target's stencil by a full scan: the nodes of ``pts`` strictly
    inside its radius ``h``, nearest first by exact squared distance, ties
    to the lower index.  Returns (T, K) indices and squared distances padded
    with index 0 and d2 = inf."""
    rows = []
    for x, r in zip(targets, h):
        d2 = np.sum((pts - x) ** 2, axis=1)
        inside = np.flatnonzero(np.sqrt(d2) < r)
        order = inside[np.lexsort((inside, d2[inside]))]
        rows.append((order, d2[order]))
    width = max(len(i) for i, _ in rows)
    idx = np.zeros((len(rows), width), dtype=int)
    d2 = np.full((len(rows), width), np.inf)
    for row, (i, d) in enumerate(rows):
        idx[row, : i.size], d2[row, : i.size] = i, d
    return idx, d2


def _monomials(pts, terms):
    return np.column_stack([np.prod(pts ** np.array(e), axis=1) for e in terms])


def correct_oracle(field_values, exposed, fluid_history, grid, cfg):
    """Grow each node's radius from h0 by 1.5x until enough trusted nodes lie
    strictly inside, then fit there.  Returns (field, rows, uncorrected) with
    rows of (node, h, before, after)."""
    corrected = np.array(field_values, dtype=float)
    h0 = cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()
    need = cfg.required_neighbors(grid.dim)
    terms = _poly_terms(grid.dim, cfg.order)
    hist_idx = np.flatnonzero(fluid_history)
    hist_pts = grid.coords[hist_idx]
    rows, uncorrected = [], []
    for j in np.asarray(exposed, dtype=int):
        xp = grid.coords[j]
        d = np.sqrt(np.sum((hist_pts - xp) ** 2, axis=1))
        h = h0
        for _ in range(cfg.max_growths + 1):
            inside = d < h
            if inside.sum() >= need:
                break
            h *= 1.5
        else:
            uncorrected.append(int(j))
            continue
        sel = hist_idx[inside]
        w = wendland_c2(d[inside] / h)
        P = _monomials((grid.coords[sel] - xp) / h, terms)
        Pw = P * w[:, None]
        c = cho_solve(cho_factor(Pw.T @ P, lower=True), Pw.T @ field_values[sel])
        rows.append((int(j), float(h), float(field_values[j]), float(c[0])))
        corrected[j] = c[0]
    return corrected, rows, uncorrected


def batched_correct_oracle(field_values, exposed, fluid_history, grid, cfg):
    """The correction as one batch of coefficient fits, refitted on every call
    (the library's form before shape functions were cached): each exposed
    node's rung comes from a full scan for its ``required_neighbors``-th
    nearest trusted node, it is fitted over a padded (T, K) stencil, and its
    value is the first coefficient.  Returns (field, rows, uncorrected) as
    ``correct_oracle``."""
    field_values = np.asarray(field_values, dtype=float)
    fluid_history = np.asarray(fluid_history, dtype=bool).ravel()
    exposed = np.asarray(exposed)
    if exposed.dtype == bool:
        exposed = np.flatnonzero(exposed)
    exposed = exposed.astype(int).ravel()

    corrected = field_values.copy()
    if exposed.size == 0:
        return corrected, [], []

    ladder = [cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()]
    for _ in range(cfg.max_growths):
        ladder.append(ladder[-1] * 1.5)
    need = cfg.required_neighbors(grid.dim)
    hist_idx = np.flatnonzero(fluid_history)
    hist_pts = grid.coords[hist_idx]
    xp = grid.coords[exposed]

    rung = np.full(exposed.size, len(ladder))
    if hist_idx.size >= need:
        d2 = np.array([np.sum((hist_pts - x) ** 2, axis=1) for x in xp])
        rung = np.searchsorted(ladder, np.sqrt(np.sort(d2, axis=1)[:, need - 1]), side="right")
    fit = rung < len(ladder)
    uncorrected = exposed[~fit].tolist()
    if not fit.any():
        return corrected, [], uncorrected

    xp = xp[fit]
    h = np.asarray(ladder)[rung[fit]]
    sel, d2 = brute_stencils(hist_pts, xp, h)
    d = np.sqrt(d2)
    w = np.where(d < h[:, None], wendland_c2(d / h[:, None]), 0.0)
    new_vals = _local_fit(
        (hist_pts[sel] - xp[:, None, :]) / h[:, None, None],
        field_values[hist_idx[sel]],
        w,
        _poly_terms(grid.dim, cfg.order),
    )[:, 0]

    nodes = exposed[fit]
    rows = [
        (int(j), float(hj), float(field_values[j]), float(v))
        for j, hj, v in zip(nodes, h, new_vals)
    ]
    corrected[nodes] = new_vals
    return corrected, rows, uncorrected


def lone_fit(xp, points, values, order, h):
    """The MLS fit of ``order`` at ``xp`` over the trusted nodes ``points``
    holding ``values``, all strictly inside the support radius ``h``.

    ``correct_field`` corrects node 0 of a grid of the target followed by
    the neighbours, with the one-rung ladder h (``kernel_len = h``, no
    growth) and 1.5 neighbours per polynomial term required.
    """
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    coords = np.vstack([xp, np.asarray(points, dtype=float).reshape(-1, xp.size)])
    grid = SpatialGrid(dim=xp.size, coords=coords, quad_weights=np.ones(len(coords)))
    cfg = MlsConfig(order=order, kernel_len=h, min_neighbor_factor=1.5, max_growths=0)
    history = np.arange(len(coords)) > 0
    out, report = correct_field(np.append(0.0, values), [0], history, grid, cfg)
    assert report.nodes.tolist() == [0], "the target was left uncorrected"
    return float(out[0])
