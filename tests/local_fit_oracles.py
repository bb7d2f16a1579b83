"""Per-node reference implementations of the occluded fill and the MLS
correction: one brute-force neighbor scan and one dense solve per node.

The library batches both steps over a k-d tree; these loops are the plain
definition they are checked against.  ``_local_fit`` is the batched
coefficient fit the library used before its one shape-function kernel:
``batched_fill_oracle`` and ``batched_correct_oracle`` are the fill and the
correction on it, the references for the shape-function form to within
rounding.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree

from mbrom.data import _balls, _nearest, _poly_matrix, _poly_terms, _term_name
from mbrom.mls import wendland_c2


def _cholesky_moments(
    mm: np.ndarray, terms: list[tuple[int, ...]], min_norm: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Cholesky factors of a (T, n, n) stack of moment matrices, and which
    fits are weak: smallest pivot at most 1e-6 of the largest, or not
    positive definite.  Unless ``min_norm`` (the caller handles weak fits),
    a weak fit raises ValueError naming the direction the worst-conditioned
    fit cannot resolve.  The factors are None when some fit is not positive
    definite.
    """
    try:
        L = np.linalg.cholesky(mm)
        d = np.diagonal(L, axis1=1, axis2=2)
        weak = ~(d.min(axis=1) ** 2 > 1e-12 * d.max(axis=1) ** 2)
    except np.linalg.LinAlgError:  # some fit is not positive definite
        L, weak = None, np.ones(mm.shape[0], dtype=bool)
    if weak.any() and not min_norm:
        evals, evecs = np.linalg.eigh(mm)
        t = np.argmin(evals[:, 0] / evals[:, -1])
        worst = np.argmax(np.abs(evecs[t, :, 0]))
        raise ValueError(
            f"rank-deficient moment matrix: neighbors do not resolve the "
            f"{_term_name(terms[worst])} direction"
        )
    return L, weak


def _local_fit(
    offsets: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    terms: list[tuple[int, ...]],
    min_norm: bool = False,
) -> np.ndarray:
    """Weighted least-squares polynomial fits around a batch of target nodes.

    ``offsets`` (T, K, dim) are neighbor positions relative to each target,
    already divided by that target's length scale; ``values`` and
    ``weights`` are (T, K), and padding slots carry weight 0.  Returns the
    (T, n) coefficients in the centered, scaled monomial basis; column 0 is
    each fit's value at its target.  The (T, n, n) moment matrices are solved
    by Cholesky.  A fit whose smallest pivot is at most 1e-6 of its largest
    does not resolve every term: with ``min_norm`` it gets the minimum-norm
    least-squares solution (as ``np.linalg.lstsq`` gives), otherwise
    ValueError names the direction the worst-conditioned fit cannot resolve.
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
    L, weak = _cholesky_moments(mm, terms, min_norm)
    coef = np.empty((T, n))
    if not weak.all():
        y = np.linalg.solve(L[~weak], rhs[~weak, :, None])
        coef[~weak] = np.linalg.solve(L[~weak].transpose(0, 2, 1), y)[:, :, 0]
    if weak.any():
        sw = np.sqrt(weights[weak])
        A = _poly_matrix(offsets[weak].reshape(-1, dim), terms).reshape(-1, K, n)
        b = (sw * values[weak])[:, :, None]
        coef[weak] = (np.linalg.pinv(A * sw[:, :, None]) @ b)[:, :, 0]
    return coef


def _monomials(pts, terms):
    return np.column_stack([np.prod(pts ** np.array(e), axis=1) for e in terms])


def fill_oracle(coords, values, fluid, order):
    """Least-squares extension into ~fluid over the 3 x terms nearest fluid
    nodes, distance ties to the lower index."""
    out = np.array(values, dtype=float)
    flu = np.flatnonzero(fluid)
    terms = _poly_terms(coords.shape[1], order)
    k = 3 * len(terms)
    for j in np.flatnonzero(~fluid):
        d2 = np.sum((coords[flu] - coords[j]) ** 2, axis=1)
        sel = flu[np.argsort(d2, kind="stable")[:k]]
        centered = coords[sel] - coords[j]
        scale = np.max(np.abs(centered))
        scale = scale if scale > 0 else 1.0
        A = _monomials(centered / scale, terms)
        c, *_ = np.linalg.lstsq(A, values[sel], rcond=None)
        out[j] = c[0]
    return out


def batched_fill_oracle(grid, values, fluid, order):
    """The fill as one batch of coefficient fits over the k = 3 x terms
    nearest fluid nodes (the library's form before shape functions): each
    value is the first coefficient, minimum-norm where a fit is weak."""
    out = np.array(values, dtype=float)
    occ = np.flatnonzero(~fluid)
    if occ.size == 0:
        return out
    flu = np.flatnonzero(fluid)
    terms = _poly_terms(grid.dim, order)
    pts = grid.coords[flu]
    targets = grid.coords[occ]
    sel, _ = _nearest(cKDTree(pts), pts, targets, 3 * len(terms))
    centered = pts[sel] - targets[:, None, :]
    scale = np.max(np.abs(centered), axis=(1, 2))
    scale[scale == 0] = 1.0
    coef = _local_fit(
        centered / scale[:, None, None],
        out[flu[sel]],
        np.ones(sel.shape),
        terms,
        min_norm=True,
    )
    out[occ] = coef[:, 0]
    return out


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
    (the library's form before shape functions were cached): every exposed
    node is fitted over a padded (T, K) stencil and its value is the first
    coefficient.  Returns (field, rows, uncorrected) as ``correct_oracle``."""
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
        tree = cKDTree(hist_pts)
        _, d2 = _nearest(tree, hist_pts, xp, need)
        rung = np.searchsorted(ladder, np.sqrt(d2[:, -1]), side="right")
    fit = rung < len(ladder)
    uncorrected = exposed[~fit].tolist()
    if not fit.any():
        return corrected, [], uncorrected

    xp = xp[fit]
    h = np.asarray(ladder)[rung[fit]]
    sel, d2 = _balls(tree, hist_pts, xp, h)
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
