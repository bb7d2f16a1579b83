"""Grids, snapshot sets, domain masks and dataset file I/O.

Datasets live on a fixed spatial grid.  A snapshot is the full nodal field at
one time instance; nodes covered by a moving body or cavity at that instance
are flagged by a per-snapshot mask.  Matrices are stored as headerless CSV
(one row per snapshot), tied together by a small JSON manifest.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np
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

    def occluded_union(self) -> np.ndarray:
        """Nodes occluded in at least one snapshot (swept-over region)."""
        return ~self.fluid_throughout()


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


def _balls(
    tree: cKDTree, pts: np.ndarray, targets: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of ``pts`` (indexed by ``tree``) within distance ``r`` of each target.

    Returns (T, K) indices and squared distances, each row ordered by the
    squared distance summed over axes, ties to the lower index, and padded
    with d2 = inf.  The query radius is widened by 1e-9 so that rounding in
    the tree cannot drop a node; callers test the exact d2 themselves.
    """
    balls = tree.query_ball_point(targets, r * (1.0 + 1e-9), return_sorted=True)
    sizes = np.array([len(b) for b in balls])
    slot = np.arange(sizes.max()) < sizes[:, None]
    idx = np.zeros(slot.shape, dtype=int)
    idx[slot] = np.concatenate(balls)
    d2 = np.where(slot, np.sum((pts[idx] - targets[:, None, :]) ** 2, axis=2), np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)


def _nearest(
    tree: cKDTree, pts: np.ndarray, targets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest of ``pts`` to each target, as (T, k) indices and d2.

    Row for row this is ``np.argsort(d2, kind="stable")[:k]`` of a
    brute-force scan: the ball out to the tree's k-th distance holds every
    node that ties with or undercuts the k nearest.
    """
    k = min(k, pts.shape[0])
    kth = tree.query(targets, k=[k])[0][:, 0]
    idx, d2 = _balls(tree, pts, targets, kth)
    return idx[:, :k], d2[:, :k]


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
    terms = _poly_terms(grid.dim, order)
    if flu.size < len(terms):
        raise ValueError(
            f"occluded node with only {flu.size} fluid neighbors, "
            f"need at least {len(terms)} for order {order}"
        )
    pts = grid.coords[flu]
    targets = grid.coords[occ]
    sel, _ = _nearest(cKDTree(pts), pts, targets, 3 * len(terms))
    centered = pts[sel] - targets[:, None, :]
    scale = np.max(np.abs(centered), axis=(1, 2))
    scale[scale == 0] = 1.0
    coef = _local_fit(
        centered / scale[:, None, None],
        values[flu[sel]],
        np.ones(sel.shape),
        terms,
        min_norm=True,
    )
    out[occ] = coef[:, 0]
    return out


def fill_occluded(
    s: SnapshotSet,
    strategy: str = "ls_extrapolation",
    order: int = 0,
    body_values: np.ndarray | float | None = None,
) -> SnapshotSet:
    """Assign values to occluded nodes so POD can run on the full domain.

    ``ls_extrapolation`` fits a least-squares polynomial of the given order
    over the k = 3 x terms nearest fluid nodes of each snapshot (equal
    distances in order of node index) and evaluates it at the occluded
    node.  ``rigid_motion`` stamps the body's own value (per snapshot, from
    ``body_values``) onto the occluded nodes.  Masks are kept
    so later stages still know which nodes carried real data.
    """
    if strategy not in ("ls_extrapolation", "rigid_motion"):
        raise ValueError(f"unknown fill strategy {strategy!r}")
    if s.all_fluid():
        return s
    M = s.n_snapshots
    filled = s.fields.copy()
    if strategy == "rigid_motion":
        if body_values is None:
            raise ValueError("rigid_motion fill needs body_values (per-snapshot)")
        bv = np.broadcast_to(np.asarray(body_values, dtype=float).ravel(), (M,)) \
            if np.ndim(body_values) else np.full(M, float(body_values))
        for i in range(M):
            filled[i, ~s.masks[i].fluid] = bv[i]
    else:
        if order < 0:
            raise ValueError("polynomial order must be >= 0")
        for i in range(M):
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
    with open(path, newline="") as fh:
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


def save_dataset(s: SnapshotSet, out_dir: str | Path) -> Path:
    """Write a SnapshotSet as manifest + CSVs; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gmat = np.column_stack([s.grid.coords, s.grid.quad_weights])
    np.savetxt(out / "grid.csv", gmat, fmt=FMT, delimiter=",")
    np.savetxt(out / "fields.csv", s.fields, fmt=FMT, delimiter=",")
    np.savetxt(out / "times.csv", s.times[:, None], fmt=FMT, delimiter=",")
    meta = {
        "grid": "grid.csv",
        "fields": "fields.csv",
        "times": "times.csv",
        "field_name": s.field_name,
    }
    if not s.all_fluid():
        mmat = np.array([m.fluid.astype(int) for m in s.masks])
        np.savetxt(out / "masks.csv", mmat, fmt="%d", delimiter=",")
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
