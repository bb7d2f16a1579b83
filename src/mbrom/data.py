"""Grids, snapshot sets, domain masks and dataset file I/O.

Datasets live on a fixed spatial grid.  A snapshot is the full nodal field at
one time instance; nodes covered by a moving body or cavity at that instance
are flagged by a per-snapshot mask.  Matrices are stored as headerless CSV
(one row per snapshot), tied together by a small JSON manifest.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

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
    "write_json",
]


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN/inf, naming the first offending row (1-based)."""
    bad = ~np.isfinite(a)
    if bad.any():
        row = int(np.argmax(bad.reshape(a.shape[0], -1).any(axis=1))) + 1
        raise ValueError(f"non-finite {what} {row}")


def _median(v: np.ndarray) -> float:
    """The bits of ``np.median`` for finite ``v``, without its overhead: the
    mean of the middle value or of the middle two, summed from 0 as
    ``np.mean`` sums them."""
    m = v.size // 2
    if v.size % 2:
        return float(0.0 + np.partition(v, m)[m])
    a, b = np.partition(v, [m - 1, m])[m - 1 : m + 1]
    return float((0.0 + a + b) / 2)


def _require_finite_fields(record) -> None:
    """Reject a config dataclass with a field that is a bool, not a number,
    NaN or infinite, naming the field; a field of None is unset and passes."""
    for f in fields(record):
        value = getattr(record, f.name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{f.name} must be a number, not {value!r}")
        if not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SpatialGrid:
    """Node coordinates plus per-node quadrature weights (cell measures).

    ``coords`` has shape (N, dim) with dim 1 or 2; a 1-D array is one
    column.  Discrete integrals over the domain are plain weighted sums, so
    every identity downstream holds for any positive weights.
    """

    dim: int
    coords: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        coords = coords.reshape(-1, 1) if coords.ndim < 2 else coords
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
            return _median(np.diff(np.sort(self.coords[:, 0])))
        return float(np.sqrt(_median(self.quad_weights)))

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
        for name in self.names:  # each must survive boundary.csv's header line
            if not name or name != name.strip() or any(c in name for c in ',"\r\n'):
                raise ValueError(
                    f"boundary name {name!r} is empty or has a comma, quote, "
                    "line break or surrounding space"
                )
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

    @cached_property
    def fluid(self) -> np.ndarray:
        """The masks as one (M, N) matrix, one row per snapshot."""
        return np.array([m.fluid for m in self.masks])

    def all_fluid(self) -> bool:
        return bool(self.fluid.all())

    def fluid_throughout(self) -> np.ndarray:
        """Nodes that sit in the fluid domain in every snapshot."""
        return self.fluid.all(axis=0)


def inner_product(f: np.ndarray, g: np.ndarray, grid: SpatialGrid) -> float:
    """Discrete L2 inner product sum_j f_j g_j w_j on the grid."""
    f = np.asarray(f, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    if f.shape[0] != grid.n_nodes or g.shape[0] != grid.n_nodes:
        raise ValueError(
            f"vector lengths {f.shape[0]}, {g.shape[0]} != grid size {grid.n_nodes}"
        )
    return float(np.sum(f * g * grid.quad_weights))


def fill_occluded(s: SnapshotSet) -> SnapshotSet:
    """The snapshots with every node outside B set to 0, so POD runs on B.

    B is the set of nodes fluid in every snapshot.  Outside it the mean is
    then 0, and so is every mode of the basis that ``rom.build`` makes; a
    forecast takes its values there from the MLS correction.  All-fluid data
    comes back as it is.  Masks are kept so later stages still know which
    nodes carried real data.
    """
    if s.all_fluid():
        return s
    return SnapshotSet(
        grid=s.grid,
        times=s.times,
        fields=np.where(s.fluid_throughout(), s.fields, 0.0),
        masks=s.masks,
        boundary=s.boundary,
        field_name=s.field_name,
    )


# ---------------------------------------------------------------------------
# file I/O
#
# Manifest keys: grid, fields, times, masks (optional), boundary (optional),
# field_name.  Matrix CSVs are headerless; the boundary CSV has a header row
# with the parameter names.  Every JSON file goes through ``write_json``.


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


def _read_grid(path: Path) -> SpatialGrid:
    """Grid from a CSV of coordinate columns and a last column of weights."""
    gmat = _read_matrix(path)
    dim = gmat.shape[1] - 1
    return SpatialGrid(dim=dim, coords=gmat[:, :dim], quad_weights=gmat[:, dim])


def _write_grid(path: Path, grid: SpatialGrid) -> None:
    """The CSV ``_read_grid`` reads: the coordinates, then the weights."""
    write_matrix(path, np.column_stack([grid.coords, grid.quad_weights]))


def _read_json(path: str | Path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path: str | Path | None, payload) -> str:
    """Write ``payload`` as JSON, indented by 2, with sorted keys and a final
    newline (no file when ``path`` is None); returns the text less it."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def load_snapshots(manifest_path: str | Path) -> SnapshotSet:
    """Load a dataset directory via its JSON manifest."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    base = manifest_path.parent
    meta = _read_json(manifest_path)
    for key in ("grid", "fields", "times"):
        if key not in meta:
            raise ValueError(f"manifest missing required key {key!r}")

    grid = _read_grid(base / meta["grid"])
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
    _write_grid(out / "grid.csv", s.grid)
    write_matrix(out / "fields.csv", s.fields)
    write_matrix(out / "times.csv", s.times)
    meta = {
        "grid": "grid.csv",
        "fields": "fields.csv",
        "times": "times.csv",
        "field_name": s.field_name,
    }
    if not s.all_fluid():
        write_matrix(out / "masks.csv", s.fluid.astype(int), fmt="%d")
        meta["masks"] = "masks.csv"
    if s.boundary is not None:
        names = ",".join(s.boundary.names)
        write_matrix(out / "boundary.csv", s.boundary.values, header=names)
        meta["boundary"] = "boundary.csv"
    write_json(out / "manifest.json", meta)
    return out / "manifest.json"
