"""Per-node reference implementations of the occluded fill and the MLS
correction: one brute-force neighbor scan and one dense solve per node.

The library batches both steps over a k-d tree; these loops are the plain
definition they are checked against.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mbrom.data import _poly_terms


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
