"""Grid, snapshot, fill and file I/O tests."""

import ast
import csv
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbrom
from mbrom.data import (
    FMT,
    BoundaryTrack,
    DomainMask,
    SnapshotSet,
    SpatialGrid,
    _median,
    fill_occluded,
    inner_product,
    load_snapshots,
    _parse_matrix,
    _read_matrix,
    save_dataset,
    write_matrix,
)


def unit_grid(n):
    # n cells centered on [0,1]: uniform weights that sum to exactly 1
    x = (np.arange(n) + 0.5) / n
    return SpatialGrid(dim=1, coords=x[:, None], quad_weights=np.full(n, 1.0 / n))


def write_dataset(tmp_path, fields, times, grid_rows=None, masks=None, boundary=None):
    n = len(fields[0])
    if grid_rows is None:
        grid_rows = [[(j + 0.5) / n, 1.0 / n] for j in range(n)]
    np.savetxt(tmp_path / "grid.csv", np.asarray(grid_rows), delimiter=",")
    np.savetxt(tmp_path / "fields.csv", np.asarray(fields), delimiter=",")
    np.savetxt(tmp_path / "times.csv", np.asarray(times)[:, None], delimiter=",")
    meta = {"grid": "grid.csv", "fields": "fields.csv", "times": "times.csv"}
    if masks is not None:
        np.savetxt(tmp_path / "masks.csv", np.asarray(masks), fmt="%d", delimiter=",")
        meta["masks"] = "masks.csv"
    if boundary is not None:
        (tmp_path / "boundary.csv").write_text(boundary)
        meta["boundary"] = "boundary.csv"
    (tmp_path / "manifest.json").write_text(json.dumps(meta))
    return tmp_path / "manifest.json"


class TestGrid:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpatialGrid(dim=1, coords=np.array([[0.0], [0.0], [1.0]]),
                        quad_weights=np.ones(3))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SpatialGrid(dim=1, coords=np.array([[0.0], [1.0]]),
                        quad_weights=np.array([1.0, 0.0]))

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="2 nodes"):
            SpatialGrid(dim=1, coords=np.array([[0.0]]), quad_weights=np.ones(1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_coords_are_one_column(self, n):
        x = np.linspace(0.0, 1.0, n)
        g = SpatialGrid(dim=1, coords=x, quad_weights=np.ones(n))
        np.testing.assert_array_equal(g.coords, x[:, None])

    def test_row_of_coords_refused(self):
        # one node with three coordinates, not three nodes
        with pytest.raises(ValueError, match="coords have 3 columns, expected dim=1"):
            SpatialGrid(dim=1, coords=np.array([[0.0, 0.5, 1.0]]), quad_weights=np.ones(1))

    def test_uniform_1d_spacing(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 11)
        assert g.n_nodes == 11
        assert g.spacing() == pytest.approx(0.1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(v=st.lists(st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, 0.1])
    ), min_size=1, max_size=40))
    def test_median_has_the_bits_of_numpy(self, v):
        # the spacing's median: odd and even sizes, ties and signed zeros
        v = np.array(v)
        assert np.float64(_median(v)).tobytes() == np.median(v).tobytes()


class TestInnerProduct:
    def test_normalized_ones(self):
        g = unit_grid(50)
        ones = np.ones(50)
        assert inner_product(ones, ones, g) == pytest.approx(1.0)

    def test_orthogonal_sin_cos(self):
        # exact integral of sin(2 pi x) cos(2 pi x) over [0,1] is zero
        n = 400
        g = unit_grid(n)
        x = g.coords[:, 0]
        val = inner_product(np.sin(2 * np.pi * x), np.cos(2 * np.pi * x), g)
        assert abs(val) < 10.0 / n**2

    def test_zero_vector(self):
        g = unit_grid(10)
        assert inner_product(np.zeros(10), np.ones(10), g) == 0.0

    def test_length_mismatch(self):
        g = unit_grid(10)
        with pytest.raises(ValueError, match="grid size"):
            inner_product(np.ones(9), np.ones(10), g)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(7)
        g = unit_grid(30)
        for _ in range(20):
            f, h, k = rng.standard_normal((3, 30))
            a, b = rng.standard_normal(2)
            assert inner_product(f, h, g) == pytest.approx(
                inner_product(h, f, g), abs=1e-12
            )
            lhs = inner_product(a * f + b * k, h, g)
            rhs = a * inner_product(f, h, g) + b * inner_product(k, h, g)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSnapshotSet:
    def test_mean_fluct_split(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 2)
        s = SnapshotSet(g, [0.0, 1.0], [[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_allclose(s.mean, [2.0, 2.0])
        np.testing.assert_allclose(s.fluct, [[-1.0, -1.0], [1.0, 1.0]])

    def test_mean_removal_random(self):
        rng = np.random.default_rng(11)
        g = unit_grid(40)
        for _ in range(10):
            u = rng.standard_normal((6, 40)) * 10
            s = SnapshotSet(g, np.arange(6.0), u)
            scale = np.abs(u).max()
            assert np.abs(s.fluct.mean(axis=0)).max() <= 1e-10 * scale
            np.testing.assert_allclose(s.mean + s.fluct, u, rtol=1e-12, atol=0)

    def test_non_increasing_times(self):
        g = unit_grid(3)
        with pytest.raises(ValueError, match="non-increasing times at row 2"):
            SnapshotSet(g, [0.2, 0.1], np.ones((2, 3)))

    def test_single_snapshot_rejected(self):
        g = unit_grid(3)
        with pytest.raises(ValueError, match="2 snapshots"):
            SnapshotSet(g, [0.0], np.ones((1, 3)))


class TestLoadSnapshots:
    def test_basic_echo(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0.0, 1.0])
        s = load_snapshots(tmp_path)
        assert s.n_snapshots == 2 and s.n_nodes == 3
        assert s.all_fluid()

    def test_mean_fluct(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 1.0], [3.0, 3.0]], [0.0, 1.0])
        s = load_snapshots(tmp_path)
        np.testing.assert_allclose(s.mean, [2.0, 2.0])
        np.testing.assert_allclose(s.fluct, [[-1.0, -1.0], [1.0, 1.0]])

    def test_bad_times(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.2, 0.1])
        with pytest.raises(ValueError, match="non-increasing times at row 2"):
            load_snapshots(tmp_path)

    def test_non_numeric_reports_file_and_row(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0])
        (tmp_path / "fields.csv").write_text("1.0,2.0\nx,4.0\n")
        with pytest.raises(ValueError, match=r"fields\.csv.*row 2"):
            load_snapshots(tmp_path)

    def test_undecodable_byte_reports_file_and_row(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0])
        (tmp_path / "fields.csv").write_bytes(b"1.0,2.0\n\xff,4.0\n")
        with pytest.raises(ValueError, match=r"fields\.csv: non-numeric entry at row 2"):
            load_snapshots(tmp_path)

    def test_dimension_mismatch(self, tmp_path):
        write_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="rows"):
            load_snapshots(tmp_path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "boundary.csv: empty matrix file"),
            ("R\n", "boundary.csv: empty matrix file"),
            ("R\n1.5\n1.25,2.0\n", "boundary.csv: ragged row at row 3"),
        ],
        ids=["empty", "header_only", "ragged"],
    )
    def test_malformed_boundary_file(self, tmp_path, text, message):
        write_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0], boundary=text)
        with pytest.raises(ValueError) as exc:
            load_snapshots(tmp_path)
        assert str(exc.value) == message

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), cols=st.integers(1, 8))
    def test_fast_parse_equals_row_parse(self, seed, rows, cols):
        # numpy's parser and the row-wise one read the same bits back
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-300, 300, (rows, cols))
        mat[rng.random((rows, cols)) < 0.1] = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            np.savetxt(path, mat, fmt=FMT, delimiter=",")
            with open(path, newline="") as fh:
                rowwise = _parse_matrix(path, enumerate(csv.reader(fh), start=1))
            fast = _read_matrix(path)
        np.testing.assert_array_equal(fast, rowwise)
        np.testing.assert_array_equal(fast, mat)

    def test_boundary_track(self, tmp_path):
        write_dataset(
            tmp_path,
            [[1.0, 2.0], [3.0, 4.0]],
            [0.0, 1.0],
            boundary="R\n1.5\n1.25\n",
        )
        s = load_snapshots(tmp_path)
        assert s.boundary.names == ["R"]
        np.testing.assert_allclose(s.boundary.column("R"), [1.5, 1.25])

    def test_roundtrip(self, tmp_path):
        g = unit_grid(5)
        masks = [DomainMask(np.array([0, 1, 1, 1, 1], bool)),
                 DomainMask(np.ones(5, bool))]
        s = SnapshotSet(
            g, [0.0, 1.0], np.arange(10.0).reshape(2, 5), masks=masks,
            boundary=BoundaryTrack(["R"], np.array([[0.3], [0.1]])),
            field_name="S",
        )
        save_dataset(s, tmp_path / "ds")
        s2 = load_snapshots(tmp_path / "ds")
        np.testing.assert_array_equal(s2.fields, s.fields)
        np.testing.assert_array_equal(s2.times, s.times)
        np.testing.assert_array_equal(s2.masks[0].fluid, s.masks[0].fluid)
        np.testing.assert_array_equal(s2.boundary.values, s.boundary.values)
        assert s2.field_name == "S"

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(names=st.lists(
        st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)
        .filter(lambda n: n and n == n.strip()),
        min_size=1, max_size=4,
    ))
    def test_boundary_names_round_trip(self, names):
        g = unit_grid(3)
        track = BoundaryTrack(names, np.arange(2.0 * len(names)).reshape(2, -1) / 3)
        s = SnapshotSet(g, [0.0, 1.0], np.ones((2, 3)), boundary=track)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(s, tmp)
            back = load_snapshots(tmp).boundary
        assert back.names == names
        np.testing.assert_array_equal(back.values, track.values)

    @pytest.mark.parametrize("name", ["", "a,b", 'a"', "a\nb", " R", "R "])
    def test_boundary_name_the_header_cannot_carry_refused(self, name):
        with pytest.raises(ValueError, match="boundary name"):
            BoundaryTrack([name], np.ones((2, 1)))


class TestFillOccluded:
    def occluded_set(self, values_fn, fluid):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 21)
        x = g.coords[:, 0]
        u = np.array([values_fn(x), values_fn(x) + 1.0])
        u[:, ~fluid] = 0.0
        masks = [DomainMask(fluid)] * 2
        return SnapshotSet(g, [0.0, 1.0], u, masks=masks), x

    def test_all_fluid_noop(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 5)
        s = SnapshotSet(g, [0.0, 1.0], np.random.default_rng(0).random((2, 5)))
        assert fill_occluded(s) is s

    def test_masks_kept(self):
        fluid = np.ones(21, bool)
        fluid[:5] = False
        s, _ = self.occluded_set(lambda x: x, fluid)
        out = fill_occluded(s)
        np.testing.assert_array_equal(out.masks[0].fluid, fluid)

    def test_zero_outside_the_always_fluid_nodes(self):
        # B = nodes 6.., fluid in both snapshots; nodes 3-5 are fluid in one
        g = SpatialGrid.uniform_1d(0.0, 1.0, 21)
        fluid = np.ones((2, 21), bool)
        fluid[0, :3] = fluid[1, :6] = False
        u = np.random.default_rng(1).standard_normal((2, 21))
        s = SnapshotSet(g, [0.0, 1.0], u, masks=[DomainMask(f) for f in fluid])
        out = fill_occluded(s)
        np.testing.assert_array_equal(out.fields[:, 6:], u[:, 6:])
        np.testing.assert_array_equal(out.fields[:, :6], 0.0)
        np.testing.assert_array_equal(out.mean[:6], 0.0)


class TestWriteMatrix:
    """``write_matrix`` writes the bytes of ``np.savetxt``."""

    SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, np.inf,
               -np.inf, np.nan, 1.0 / 3.0, -1e300]

    @staticmethod
    def same_bytes(mat, fmt, header=None):
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
            write_matrix(ours, mat, fmt=fmt, header=header)
            np.savetxt(ref, mat, fmt=fmt, delimiter=",", comments="",
                       header="" if header is None else header)
            assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cols=st.sampled_from([1, 2, 3, 7, 4095, 4096, 4097, 5000]),
        data=st.data(),
        header=st.sampled_from([None, "t,a_1"]),
    )
    def test_floats_match_savetxt(self, seed, cols, data, header):
        # up to ~5 blocks of 4096 values: row counts that cross a block edge,
        # single rows, zero rows and rows wider than a block
        rows = data.draw(st.integers(0, max(1, 20000 // cols)))
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-320, 300, (rows, cols))
        special = rng.random((rows, cols)) < 0.2
        mat[special] = rng.choice(self.SPECIAL, int(special.sum()))
        self.same_bytes(mat, FMT, header)
        if cols == 1:
            self.same_bytes(mat[:, 0], FMT, header)  # 1-D: one column

    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (0, 3), (1, 4), (4099, 1), (3, 5000)])
    def test_ints_match_savetxt(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.same_bytes(rng.integers(-(10**15), 10**15, shape), "%d")
        self.same_bytes((rng.random(shape) < 0.5).astype(int), "%d")


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid(self, bad):
        coords = np.linspace(0.0, 1.0, 4)[:, None]
        coords[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite grid coordinate at node 3"):
            SpatialGrid(dim=1, coords=coords, quad_weights=np.ones(4))
        w = np.ones(4)
        w[1] = bad
        with pytest.raises(ValueError, match="non-finite quadrature weight at node 2"):
            SpatialGrid(dim=1, coords=np.linspace(0.0, 1.0, 4)[:, None], quad_weights=w)

    def test_snapshot_times_and_fields(self):
        g = unit_grid(3)
        with pytest.raises(ValueError, match="non-finite time at row 2"):
            SnapshotSet(g, [0.0, np.nan], np.zeros((2, 3)))
        fields = np.zeros((3, 3))
        fields[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite field value at row 3"):
            SnapshotSet(g, [0.0, 1.0, 2.0], fields)

    def test_boundary_values(self):
        with pytest.raises(ValueError, match="non-finite boundary value at row 2"):
            BoundaryTrack(["R"], np.array([[1.0], [np.inf]]))

    @pytest.mark.parametrize(
        "name, text, row",
        [
            ("grid.csv", "0.25,0.5\nnan,0.5\n", 2),
            ("fields.csv", "1.0,2.0\n3.0,inf\n", 2),
            ("times.csv", "nan\n1.0\n", 1),
            ("boundary.csv", "R\n1.5\nnan\n", 3),
        ],
    )
    def test_load_names_file_and_row(self, tmp_path, name, text, row):
        write_dataset(
            tmp_path, [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0], boundary="R\n1.5\n1.25\n"
        )
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError) as exc:
            load_snapshots(tmp_path)
        assert str(exc.value) == f"{name}: non-finite entry at row {row}"


@pytest.mark.parametrize("module", ["pod", "gpr", "mls", "galerkin"])
def test_numerical_module_does_no_file_io(module):
    # data.py owns the codecs, rom.py the model files and cli.py the command
    # outputs; the numerical core imports none of them
    path = Path(mbrom.__file__).parent / f"{module}.py"
    banned = {"pathlib", "json", "csv", "write_json", "_read_json", "write_matrix",
              "_read_matrix", "_write_grid"}
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").split(".")[0]} | {a.name for a in node.names}
    assert not imported & banned


def test_every_public_name_resolves():
    # a name deleted from a module but left in its __all__, or still imported
    # by the package, fails here rather than in a user's import
    package = Path(mbrom.__file__).parent
    for path in sorted(package.glob("*.py")):
        module = "mbrom" if path.stem == "__init__" else f"mbrom.{path.stem}"
        exec(f"from {module} import *", {})
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            owner = importlib.import_module(f"mbrom.{node.module}")
            for alias in node.names:
                assert hasattr(owner, alias.name), f"mbrom.{node.module}.{alias.name}"
                assert hasattr(mbrom, alias.asname or alias.name)
