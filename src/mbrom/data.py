"""Grids, snapshot sets, domain masks and dataset file I/O.

Datasets live on a fixed spatial grid.  A snapshot is the full nodal field at
one time instance; nodes covered by a moving body or cavity at that instance
are flagged by a per-snapshot mask.  Matrices are stored as headerless CSV
(one row per snapshot), tied together by a small JSON manifest.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import warnings
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "SpatialGrid",
    "DomainMask",
    "SnapshotSet",
    "BoundaryTrack",
    "inner_product",
    "fill_occluded",
    "load_snapshots",
    "save_dataset",
    "write_matrix",
]


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN/inf, naming the first offending row (1-based)."""
    bad = ~np.isfinite(a)
    if bad.any():
        row = int(np.argmax(bad.reshape(a.shape[0], -1).any(axis=1))) + 1
        raise ValueError(f"non-finite {what} {row}")


@dataclass(frozen=True)
class SpatialGrid:
    """Node coordinates plus per-node quadrature weights (cell measures).

    ``coords`` has shape (N, dim) with dim 1 or 2.  Discrete integrals over
    the domain are plain weighted sums, so every identity downstream holds
    for any positive weights.
    """

    dim: int
    coords: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if coords.shape[0] == 1 and coords.shape[1] > 2:
            coords = coords.T
        w = np.asarray(self.quad_weights, dtype=float).ravel()
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "quad_weights", w)
        if self.dim not in (1, 2):
            raise ValueError(f"grid dim must be 1 or 2, got {self.dim}")
        if coords.shape[1] != self.dim:
            raise ValueError(
                f"coords have {coords.shape[1]} columns, expected dim={self.dim}"
            )
        if coords.shape[0] < 2:
            raise ValueError("grid needs at least 2 nodes")
        if w.shape[0] != coords.shape[0]:
            raise ValueError("quad_weights length does not match node count")
        _require_finite(coords, "grid coordinate at node")
        _require_finite(w, "quadrature weight at node")
        if not np.all(w > 0):
            raise ValueError("all quadrature weights must be positive")
        # duplicate nodes make interpolation ill-posed
        order = np.lexsort(coords.T)
        diffs = np.diff(coords[order], axis=0)
        if diffs.size and np.min(np.max(np.abs(diffs), axis=1)) < 1e-12:
            raise ValueError("duplicate grid nodes (within 1e-12)")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def spacing(self) -> float:
        """Typical node spacing, used to seed interpolation radii."""
        if self.dim == 1:
            xs = np.sort(self.coords[:, 0])
            return float(np.median(np.diff(xs)))
        return float(np.sqrt(np.median(self.quad_weights)))

    @classmethod
    def uniform_1d(cls, a: float, b: float, n: int) -> "SpatialGrid":
        """Uniform 1D grid on [a, b] with cell-size weights."""
        if n < 2:
            raise ValueError("need at least 2 nodes")
        x = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        return cls(dim=1, coords=x[:, None], quad_weights=np.full(n, h))


@dataclass(frozen=True)
class DomainMask:
    """Per-node fluid flag: True where the node carries real field data."""

    fluid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fluid", np.asarray(self.fluid, dtype=bool).ravel())

    def check(self, n_nodes: int) -> None:
        if self.fluid.shape[0] != n_nodes:
            raise ValueError(
                f"mask length {self.fluid.shape[0]} != node count {n_nodes}"
            )


@dataclass(frozen=True)
class BoundaryTrack:
    """Time series of the scalar parameters that characterize a moving boundary."""

    names: list[str]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_2d(np.asarray(self.values, dtype=float)))
        if self.values.shape[1] != len(self.names):
            raise ValueError("boundary values column count != number of names")
        _require_finite(self.values, "boundary value at row")

    @property
    def n_params(self) -> int:
        return len(self.names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


class SnapshotSet:
    """Snapshots of one scalar field plus the temporal mean/fluctuation split.

    The mean over snapshots is removed once at construction; ``fluct`` holds
    the remainder, so ``mean + fluct`` reproduces ``fields`` exactly.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        times: np.ndarray,
        fields: np.ndarray,
        masks: list[DomainMask] | None = None,
        boundary: BoundaryTrack | None = None,
        field_name: str = "u",
    ):
        self.grid = grid
        self.times = np.asarray(times, dtype=float).ravel()
        self.fields = np.atleast_2d(np.asarray(fields, dtype=float))
        self.field_name = field_name
        M, N = self.fields.shape
        if M < 2:
            raise ValueError("need at least 2 snapshots")
        if self.times.shape[0] != M:
            raise ValueError(f"{self.times.shape[0]} times for {M} field rows")
        if N != grid.n_nodes:
            raise ValueError(f"fields have {N} columns, grid has {grid.n_nodes} nodes")
        _require_finite(self.times, "time at row")
        _require_finite(self.fields, "field value at row")
        dt = np.diff(self.times)
        if np.any(dt <= 0):
            row = int(np.argmax(dt <= 0)) + 2
            raise ValueError(f"non-increasing times at row {row}")
        if masks is None:
            masks = [DomainMask(np.ones(N, dtype=bool)) for _ in range(M)]
        if len(masks) != M:
            raise ValueError(f"{len(masks)} masks for {M} snapshots")
        for m in masks:
            m.check(N)
        self.masks = masks
        if boundary is not None and boundary.values.shape[0] != M:
            raise ValueError(
                f"boundary track has {boundary.values.shape[0]} rows, expected {M}"
            )
        self.boundary = boundary
        self.mean = self.fields.mean(axis=0)
        self.fluct = self.fields - self.mean

    @property
    def n_snapshots(self) -> int:
        return self.fields.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.fields.shape[1]

    def all_fluid(self) -> bool:
        return all(m.fluid.all() for m in self.masks)

    def fluid_throughout(self) -> np.ndarray:
        """Nodes that sit in the fluid domain in every snapshot."""
        out = np.ones(self.n_nodes, dtype=bool)
        for m in self.masks:
            out &= m.fluid
        return out


def inner_product(f: np.ndarray, g: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete L2 inner product sum_j f_j g_j w_j on the grid."""
    f = np.asarray(f, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    if f.shape[0] != grid.n_nodes or g.shape[0] != grid.n_nodes:
        raise ValueError(
            f"vector lengths {f.shape[0]}, {g.shape[0]} != grid size {grid.n_nodes}"
        )
    return float(np.sum(f * g * grid.quad_weights))


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
    """k-d tree over ``pts`` for ``_nearest`` and ``_balls``.

    The sliding-midpoint split (Maneewongvatana & Mount 1999) builds faster
    than the median split on grids; query distances do not depend on the
    split.  scipy.spatial loads on first use, not with the package.
    """
    from scipy.spatial import cKDTree

    return cKDTree(pts, balanced_tree=False, compact_nodes=False)


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
    offsets = pts.take(idx, axis=0) - targets[:, None, :]
    d2 = np.where(slot, np.sum(offsets**2, axis=2), np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)


_PAD = 8  # candidates fetched past the k-th nearest, to hold its distance ties


def _nearest(
    tree: cKDTree, pts: np.ndarray, targets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest of ``pts`` to each target, as (T, k) indices and d2.

    Row for row this is ``np.argsort(d2, kind="stable")[:k]`` of a
    brute-force scan.  One tree query fetches the k + ``_PAD`` nearest by
    tree distance; the cut is the k-th of them widened by 1e-9, so it holds
    every node that ties with or undercuts the k nearest.  The candidates
    inside the cut are ordered by exact d2, ties to the lower index.  A row
    whose last candidate is still inside the cut (a tie group running past
    the pad) may miss nodes, and goes through the ball search out to the
    cut instead.
    """
    n = pts.shape[0]
    k = min(k, n)
    m = min(n, k + _PAD)
    dist, idx = (a.reshape(len(targets), m) for a in tree.query(targets, k=m))
    cut = dist[:, k - 1] * (1.0 + 1e-9)
    d2 = np.where(
        dist <= cut[:, None], np.sum((pts[idx] - targets[:, None, :]) ** 2, axis=2), np.inf
    )
    order = np.lexsort((idx, d2))[:, :k]
    idx, d2 = np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)
    short = np.flatnonzero((dist[:, -1] <= cut) & (m < n))
    if short.size:
        ball_idx, ball_d2 = _balls(tree, pts, targets[short], dist[short, k - 1])
        idx[short], d2[short] = ball_idx[:, :k], ball_d2[:, :k]
    return idx, d2


def _shape_functions(
    offsets: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    order: int,
    min_norm: bool = False,
) -> np.ndarray:
    """Shape functions of weighted least-squares polynomial fits over a batch
    of stencils stored end to end: the one local fit of the fill and the MLS
    correction.

    Stencil t is ``counts[t]`` consecutive rows of ``offsets`` (positions
    relative to its target, divided by its length scale) and of ``weights``.
    Returns one a_k per row such that sum_k a_k f_k over a stencil is the
    fit's value at its target: a = W P M^-1 e_0, with P the centered, scaled
    monomials up to ``order`` and M = P^T W P, factored by Cholesky.  A fit
    whose smallest pivot is at most 1e-6 of its largest, or whose M is not
    positive definite, does not resolve every term: with ``min_norm`` it gets
    a = sqrt(w) pinv(sqrt(W) P)[0], the minimum-norm least-squares value (as
    ``np.linalg.lstsq`` gives); otherwise ValueError names the direction the
    worst-conditioned fit of its chunk cannot resolve.  Every sum runs over
    one stencil's rows alone, so a node's shape functions are the same bits
    whichever batch it is fitted in.
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
        local = starts[a : b + 1] - starts[a]  # stencil bounds within the chunk
        Q = _poly_matrix(offsets[rows], terms2)
        P = Q[:, pair[0]]  # the monomials e_0 + e_l = e_l
        mm = np.add.reduceat(Q * weights[rows, None], local[:-1])[:, pair]
        try:
            L = np.linalg.cholesky(mm)
            d = np.diagonal(L, axis1=1, axis2=2)
            weak = ~(d.min(axis=1) ** 2 > 1e-12 * d.max(axis=1) ** 2)
        except np.linalg.LinAlgError:  # some fit is not positive definite
            L, weak = None, np.ones(b - a, dtype=bool)
        if weak.any() and not min_norm:
            evals, evecs = np.linalg.eigh(mm)
            t = np.argmin(evals[:, 0] / evals[:, -1])
            worst = np.argmax(np.abs(evecs[t, :, 0]))
            raise ValueError(
                f"rank-deficient moment matrix: neighbors do not resolve the "
                f"{_term_name(terms[worst])} direction"
            )
        coef = np.zeros((b - a, len(terms)))
        if not weak.all():
            Lg = L[~weak]
            y = np.linalg.solve(Lg, e0[a:b][~weak])
            coef[~weak] = np.linalg.solve(Lg.transpose(0, 2, 1), y)[:, :, 0]
        shape[rows] = weights[rows] * np.sum(P * np.repeat(coef, counts[a:b], axis=0), axis=1)
        for t in np.flatnonzero(weak):
            k = slice(starts[a + t], starts[a + t + 1])
            sw = np.sqrt(weights[k])
            shape[k] = sw * np.linalg.pinv(P[local[t] : local[t + 1]] * sw[:, None])[0]
    return shape


def _ls_extrapolate(grid: SpatialGrid, values: np.ndarray, fluid: np.ndarray, order: int) -> np.ndarray:
    """One-sided least-squares polynomial extension into the occluded nodes.

    Each occluded node is fitted, unweighted, over its k = 3 x terms nearest
    fluid nodes, ties in distance going to the lower node index; offsets are
    scaled by the largest coordinate offset in the neighbor set.  Neighbors
    that do not resolve every term (all on one grid line behind a straight
    edge, say) get the minimum-norm fit.
    """
    out = values.copy()
    occ = np.flatnonzero(~fluid)
    if occ.size == 0:
        return out
    flu = np.flatnonzero(fluid)
    n_terms = len(_poly_terms(grid.dim, order))
    if flu.size < n_terms:
        raise ValueError(
            f"occluded node with only {flu.size} fluid neighbors, "
            f"need at least {n_terms} for order {order}"
        )
    pts = grid.coords[flu]
    targets = grid.coords[occ]
    sel, _ = _nearest(_tree(pts), pts, targets, 3 * n_terms)
    centered = pts[sel] - targets[:, None, :]
    scale = np.max(np.abs(centered), axis=(1, 2))
    scale[scale == 0] = 1.0
    T, k = sel.shape
    shape = _shape_functions(
        (centered / scale[:, None, None]).reshape(-1, grid.dim),
        np.ones(sel.size),
        np.full(T, k),
        order,
        min_norm=True,
    )
    out[occ] = np.add.reduceat(shape * values[flu[sel]].ravel(), np.arange(0, sel.size, k))
    return out


def fill_occluded(s: SnapshotSet, order: int = 0) -> SnapshotSet:
    """Assign values to occluded nodes so POD can run on the full domain.

    Each snapshot's occluded nodes get a least-squares polynomial of the
    given order, fitted over the k = 3 x terms nearest fluid nodes of that
    snapshot (equal distances in order of node index) and evaluated at the
    occluded node.  Masks are kept so later stages still know which nodes
    carried real data.
    """
    if s.all_fluid():
        return s
    if order < 0:
        raise ValueError("polynomial order must be >= 0")
    filled = s.fields.copy()
    for i in range(s.n_snapshots):
        filled[i] = _ls_extrapolate(s.grid, s.fields[i], s.masks[i].fluid, order)
    return SnapshotSet(
        grid=s.grid,
        times=s.times,
        fields=filled,
        masks=s.masks,
        boundary=s.boundary,
        field_name=s.field_name,
    )


# ---------------------------------------------------------------------------
# file I/O
#
# Manifest keys: grid, fields, times, masks (optional), boundary (optional),
# field_name.  Matrix CSVs are headerless; the boundary CSV has a header row
# with the parameter names.


def _read_matrix(path: Path) -> np.ndarray:
    """Float matrix from a headerless CSV: numpy's parser first, and the
    row-wise parser, which names the offending row, when that fails or the
    matrix is empty or not finite.  numpy reads from an open handle, which
    skips its lookup of the path."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is reported below
            mat = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        if mat.size and np.isfinite(mat).all():
            return mat
    except ValueError:  # also UnicodeDecodeError, an undecodable byte
        pass
    # an undecodable byte becomes U+FFFD, a non-numeric entry with its row
    with open(path, newline="", errors="replace") as fh:
        return _parse_matrix(path, enumerate(csv.reader(fh), start=1))


def _parse_matrix(path: Path, numbered_rows) -> np.ndarray:
    """Float matrix from (line number, CSV row) pairs; blank rows are skipped."""
    rows = []
    lines = []
    for i, row in numbered_rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path.name}: non-numeric entry at row {i}") from exc
        lines.append(i)
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{path.name}: ragged row at row {i}")
    if not rows:
        raise ValueError(f"{path.name}: empty matrix file")
    mat = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise ValueError(f"{path.name}: non-finite entry at row {lines[bad[0]]}")
    return mat


def load_snapshots(manifest_path: str | Path) -> SnapshotSet:
    """Load a dataset directory via its JSON manifest."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    base = manifest_path.parent
    with open(manifest_path) as fh:
        meta = json.load(fh)
    for key in ("grid", "fields", "times"):
        if key not in meta:
            raise ValueError(f"manifest missing required key {key!r}")

    gmat = _read_matrix(base / meta["grid"])
    dim = gmat.shape[1] - 1
    grid = SpatialGrid(dim=dim, coords=gmat[:, :dim], quad_weights=gmat[:, dim])

    fields = _read_matrix(base / meta["fields"])
    times = _read_matrix(base / meta["times"]).ravel()
    if fields.shape[0] != times.shape[0]:
        raise ValueError(
            f"{meta['fields']} has {fields.shape[0]} rows but "
            f"{meta['times']} lists {times.shape[0]} times"
        )
    if fields.shape[1] != grid.n_nodes:
        raise ValueError(
            f"{meta['fields']} has {fields.shape[1]} columns but "
            f"{meta['grid']} defines {grid.n_nodes} nodes"
        )

    masks = None
    if meta.get("masks"):
        mmat = _read_matrix(base / meta["masks"])
        if mmat.shape != fields.shape:
            raise ValueError(f"{meta['masks']} shape {mmat.shape} != fields shape")
        masks = [DomainMask(row > 0.5) for row in mmat]

    boundary = None
    if meta.get("boundary"):
        bpath = base / meta["boundary"]
        with open(bpath, newline="") as fh:
            reader = csv.reader(fh)
            names = [h.strip() for h in next(reader, [])]
            values = _parse_matrix(bpath, enumerate(reader, start=2))
        boundary = BoundaryTrack(names=names, values=values)

    return SnapshotSet(
        grid=grid,
        times=times,
        fields=fields,
        masks=masks,
        boundary=boundary,
        field_name=meta.get("field_name", "u"),
    )


FMT = "%.17g"
_BLOCK_VALUES = 4096  # values formatted per write; a block holds at least one row


def write_matrix(
    path: str | Path, mat: np.ndarray, fmt: str = FMT, header: str | None = None
) -> None:
    """Write ``mat`` as headerless CSV (a 1-D array as one column), each value
    formatted by ``fmt``, after an optional ``header`` line.

    The bytes are those of ``np.savetxt(path, mat, fmt=fmt, delimiter=",")``
    (with ``header=header, comments=""``).  Rows are formatted in blocks of
    about ``_BLOCK_VALUES`` values, one ``%`` over a block's Python numbers,
    so a large matrix never becomes one string.
    """
    mat = np.asarray(mat)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got {mat.ndim}-D")
    rows, cols = mat.shape
    line = ",".join([fmt] * cols) + "\n"
    step = max(1, _BLOCK_VALUES // max(cols, 1))
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for a in range(0, rows, step):
            block = mat[a : a + step]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def save_dataset(s: SnapshotSet, out_dir: str | Path) -> Path:
    """Write a SnapshotSet as manifest + CSVs; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gmat = np.column_stack([s.grid.coords, s.grid.quad_weights])
    write_matrix(out / "grid.csv", gmat)
    write_matrix(out / "fields.csv", s.fields)
    write_matrix(out / "times.csv", s.times)
    meta = {
        "grid": "grid.csv",
        "fields": "fields.csv",
        "times": "times.csv",
        "field_name": s.field_name,
    }
    if not s.all_fluid():
        mmat = np.array([m.fluid.astype(int) for m in s.masks])
        write_matrix(out / "masks.csv", mmat, fmt="%d")
        meta["masks"] = "masks.csv"
    if s.boundary is not None:
        with open(out / "boundary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(s.boundary.names)
            for row in s.boundary.values:
                writer.writerow([FMT % v for v in row])
        meta["boundary"] = "boundary.csv"
    mpath = out / "manifest.json"
    with open(mpath, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return mpath
