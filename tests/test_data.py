"""Grid, snapshot, fill and file I/O tests."""

import json

import numpy as np
import pytest

from mbrom.data import (
    BoundaryTrack,
    DomainMask,
    SnapshotSet,
    SpatialGrid,
    fill_occluded,
    inner_product,
    load_snapshots,
    save_dataset,
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

    def test_uniform_1d_spacing(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 11)
        assert g.n_nodes == 11
        assert g.spacing() == pytest.approx(0.1)


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


class TestFillOccluded:
    def occluded_set(self, values_fn, fluid):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 21)
        x = g.coords[:, 0]
        u = np.array([values_fn(x), values_fn(x) + 1.0])
        u[:, ~fluid] = 0.0
        masks = [DomainMask(fluid)] * 2
        return SnapshotSet(g, [0.0, 1.0], u, masks=masks), x

    def test_linear_exact(self):
        fluid = np.ones(21, bool)
        fluid[:5] = False
        s, x = self.occluded_set(lambda x: 2.0 * x + 1.0, fluid)
        out = fill_occluded(s, order=1)
        np.testing.assert_allclose(out.fields[0], 2.0 * x + 1.0, atol=1e-12)

    def test_all_fluid_noop(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 5)
        s = SnapshotSet(g, [0.0, 1.0], np.random.default_rng(0).random((2, 5)))
        assert fill_occluded(s) is s

    def test_constant_any_order(self):
        fluid = np.ones(21, bool)
        fluid[8:12] = False
        for order in (0, 1, 2, 3):
            s, _ = self.occluded_set(lambda x: np.full_like(x, 4.5), fluid)
            out = fill_occluded(s, order=order)
            np.testing.assert_allclose(out.fields[0], 4.5, atol=1e-9)

    def test_polynomial_reproduction(self):
        # order-p fit recovers any polynomial of degree <= p at occluded nodes
        fluid = np.ones(21, bool)
        fluid[:4] = False
        for p in (1, 2, 3):
            coef = np.arange(1.0, p + 2.0)
            s, x = self.occluded_set(
                lambda x: sum(c * x**k for k, c in enumerate(coef)), fluid
            )
            out = fill_occluded(s, order=p)
            truth = sum(c * x**k for k, c in enumerate(coef))
            np.testing.assert_allclose(out.fields[0][:4], truth[:4], atol=1e-9)

    def test_no_fluid_neighbors(self):
        fluid = np.zeros(21, bool)
        fluid[0] = True
        s, _ = self.occluded_set(lambda x: x, fluid)
        with pytest.raises(ValueError, match="fluid neighbors"):
            fill_occluded(s, order=2)

    def test_masks_kept(self):
        fluid = np.ones(21, bool)
        fluid[:5] = False
        s, _ = self.occluded_set(lambda x: x, fluid)
        out = fill_occluded(s, order=1)
        np.testing.assert_array_equal(out.masks[0].fluid, fluid)

    def test_polynomial_reproduction_2d(self):
        xs = np.linspace(0.0, 1.0, 9)
        gx, gy = np.meshgrid(xs, xs)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        g = SpatialGrid(dim=2, coords=coords,
                        quad_weights=np.full(coords.shape[0], (1 / 8) ** 2))
        p = 1.0 + 2 * coords[:, 0] - coords[:, 1] + 0.5 * coords[:, 0] * coords[:, 1]
        fluid = ~((coords[:, 0] < 0.3) & (coords[:, 1] < 0.3))
        u = np.array([np.where(fluid, p, 0.0), np.where(fluid, p + 2.0, 0.0)])
        s = SnapshotSet(g, [0.0, 1.0], u, masks=[DomainMask(fluid)] * 2)
        out = fill_occluded(s, order=2)
        np.testing.assert_allclose(out.fields[0], p, atol=1e-9)


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
