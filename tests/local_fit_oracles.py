"""Per-node reference implementations of the occluded fill and the MLS
correction: one brute-force neighbor scan and one dense solve per node.

The library batches both steps over a k-d tree; these loops are the plain
definition they are checked against.  ``batched_correct_oracle`` is the
correction as a batch of coefficient fits, the reference for the cached
shape-function form to within rounding.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree

from mbrom.data import _balls, _local_fit, _nearest, _poly_terms


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
        w = cfg.weight(d[inside] / h)
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
    w = np.where(d < h[:, None], cfg.weight(d / h[:, None]), 0.0)
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
