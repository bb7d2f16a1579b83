"""The batched, k-d-tree-indexed fill and MLS correction against their
per-node definitions (``local_fit_oracles``), plus polynomial reproduction
on random 2D scatter, and the cached shape functions of the correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_fit_oracles import (
    batched_correct_oracle,
    batched_fill_oracle,
    correct_oracle,
    fill_oracle,
)
from mbrom.data import SpatialGrid, _ls_extrapolate
from mbrom.mls import MlsConfig, StencilCache, correct_field

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def scatter(seed, n):
    """An n x n lattice on the unit square, each node jittered by up to 0.3
    of the spacing: random points that never coincide."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts += rng.uniform(-0.3, 0.3, pts.shape) / (n - 1)
    grid = SpatialGrid(dim=2, coords=pts, quad_weights=np.full(n * n, (n - 1.0) ** -2))
    return grid, rng


def random_poly(rng, degree):
    c = rng.standard_normal((degree + 1, degree + 1))
    return lambda p: sum(
        c[a, b] * p[:, 0] ** a * p[:, 1] ** b
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    )


def moving_front(grid, rng):
    """Trusted nodes outside a disk, exposed nodes in a ring just inside it."""
    centre = rng.uniform(0.3, 0.7, 2)
    r = np.sqrt(np.sum((grid.coords - centre) ** 2, axis=1))
    r1 = rng.uniform(0.15, 0.3)
    history = r >= r1
    exposed = np.flatnonzero((r >= rng.uniform(0.3, 0.8) * r1) & ~history)
    return exposed, history


class TestFillOracle:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12),
           order=st.integers(0, 1), p_occ=st.floats(0.05, 0.6))
    def test_matches_per_node_fill(self, seed, n, order, p_occ):
        grid, rng = scatter(seed, n)
        fluid = rng.random(n * n) >= p_occ
        fluid[rng.integers(n * n)] = False
        fluid[:3] = True
        values = np.where(fluid, rng.standard_normal(n * n), 0.0)
        out = _ls_extrapolate(grid, values, fluid, order)
        ref = fill_oracle(grid.coords, values, fluid, order)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(values).max())

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12),
           p_occ=st.floats(0.05, 0.6))
    def test_order_0_matches_coefficient_fill(self, seed, n, p_occ):
        # an order-0 fill is a mean of k values, as shape functions or as
        # the first coefficient; the two differ by rounding alone
        grid, rng = scatter(seed, n)
        fluid = rng.random(n * n) >= p_occ
        fluid[rng.integers(n * n)] = False
        fluid[:3] = True
        values = np.where(fluid, rng.standard_normal(n * n), 0.0)
        out = _ls_extrapolate(grid, values, fluid, 0)
        ref = batched_fill_oracle(grid, values, fluid, 0)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15 * np.abs(values).max())

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 12),
           degree=st.integers(0, 2))
    def test_reproduces_polynomials(self, seed, n, degree):
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        poly = random_poly(rng, degree)(grid.coords)
        out = _ls_extrapolate(grid, np.where(history, poly, 0.0), history, degree)
        np.testing.assert_allclose(out, poly, rtol=0, atol=1e-8 * np.abs(poly).max())

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_straight_edge_gets_minimum_norm_fit(self, order):
        # behind a straight edge the nearest fluid nodes of a far occluded
        # node lie on a few grid lines that cannot resolve every term; the
        # fill then takes the minimum-norm fit, as np.linalg.lstsq does
        xs = np.linspace(0.0, 1.0, 30)
        gx, gy = np.meshgrid(xs, xs)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        grid = SpatialGrid(dim=2, coords=coords, quad_weights=np.full(900, 29.0**-2))
        fluid = coords[:, 0] >= 0.3
        values = np.where(fluid, np.sin(3 * coords[:, 0]) + coords[:, 1], 0.0)
        out = _ls_extrapolate(grid, values, fluid, order)
        ref = fill_oracle(coords, values, fluid, order)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-11)

    def test_distance_ties_go_to_lower_index(self):
        # on an integer lattice the four nodes next to the centre are exactly
        # equidistant; an order-0 fill averages the k = 3 lowest-indexed ones
        xs = np.arange(5.0)
        gx, gy = np.meshgrid(xs, xs)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        grid = SpatialGrid(dim=2, coords=coords, quad_weights=np.ones(25))
        fluid = np.ones(25, bool)
        fluid[12] = False
        values = np.arange(25.0) ** 2
        out = _ls_extrapolate(grid, values, fluid, 0)
        assert out[12] == pytest.approx((7**2 + 11**2 + 13**2) / 3, rel=1e-15)
        assert out[12] == pytest.approx(fill_oracle(coords, values, fluid, 0)[12],
                                        rel=1e-15)


class TestCorrectionOracle:
    @staticmethod
    def compare(field, exposed, history, grid, cfg):
        out, report = correct_field(field, exposed, history, grid, cfg)
        ref, rows, uncorrected = correct_oracle(field, exposed, history, grid, cfg)
        assert report.uncorrected == uncorrected
        assert [r[:3] for r in report.rows] == [r[:3] for r in rows]  # h bit for bit
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10 * np.abs(field).max())
        return report

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16),
           order=st.integers(1, 3), max_growths=st.integers(0, 8))
    def test_matches_per_node_correction(self, seed, n, order, max_growths):
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        field = rng.standard_normal(n * n)
        self.compare(field, exposed, history, grid,
                     MlsConfig(order=order, max_growths=max_growths))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 16),
           order=st.integers(1, 3))
    def test_reproduces_polynomials(self, seed, n, order):
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        poly = random_poly(rng, order)(grid.coords)
        field = np.where(history, poly, 0.0)
        out, report = correct_field(field, exposed, history, grid, MlsConfig(order=order))
        nodes = report.corrected_nodes()
        np.testing.assert_allclose(out[nodes], poly[nodes], rtol=0,
                                   atol=1e-8 * np.abs(poly).max())

    @pytest.mark.parametrize("max_growths", [0, 2, 6, 8])
    def test_radius_ladder_1d(self, max_growths):
        # the growth-cap case of test_growth_cap_leaves_node_uncorrected, and
        # a cavity edge whose nodes need 6 or 7 growths, so the cap at 6
        # corrects some of them and leaves the rest
        g = SpatialGrid.uniform_1d(0.0, 1.0, 200)
        x = g.coords[:, 0]
        history = np.zeros(200, bool)
        history[-8:] = True
        cfg = MlsConfig(order=3, max_growths=max_growths, min_neighbor_factor=2.0)
        report = self.compare(np.cos(3 * x), np.array([0, 190]), history, g, cfg)
        assert 0 in report.uncorrected
        history = x > 0.3
        self.compare(np.cos(3 * x), np.flatnonzero((x > 0.18) & ~history), history, g,
                     MlsConfig(order=3, max_growths=max_growths))

    def test_rung_equal_to_distance_is_skipped(self):
        # the third-nearest trusted node sits exactly on the rung h = 3, and
        # only nodes strictly inside a radius count, so h = 4.5
        g = SpatialGrid.uniform_1d(0.0, 29.0, 30)
        cfg = MlsConfig(order=0, kernel_len=2.0, min_neighbor_factor=3.0)
        report = self.compare(np.ones(30), np.array([0]), np.arange(30) > 0, g, cfg)
        assert report.rows[0][1] == 4.5


class TestShapeFunctions:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16),
           order=st.integers(1, 3), max_growths=st.integers(0, 8))
    def test_matches_batched_fit(self, seed, n, order, max_growths):
        # a_j . f[S_j] and the first coefficient of the direct fit are two
        # solves of one system: they agree to rounding, scaled by Lambda_j
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        field = rng.standard_normal(n * n)
        cfg = MlsConfig(order=order, max_growths=max_growths)
        out, report = correct_field(field, exposed, history, grid, cfg)
        ref, rows, uncorrected = batched_correct_oracle(field, exposed, history, grid, cfg)
        assert report.uncorrected == uncorrected
        assert [r[:3] for r in report.rows] == [r[:3] for r in rows]
        nodes = report.corrected_nodes()
        lam = np.array(report.lebesgue)
        assert np.all(np.abs(out[nodes] - ref[nodes]) <= 1e-12 * lam * np.abs(field).max())
        np.testing.assert_array_equal(np.delete(out, nodes), np.delete(ref, nodes))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16),
           order=st.integers(0, 3))
    def test_partition_of_unity_and_reproduction(self, seed, n, order):
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        cache = StencilCache()
        cache.update(exposed, history, grid, MlsConfig(order=order))
        for j in exposed[np.isfinite(cache.h[exposed])]:
            part = slice(cache.start[j], cache.start[j] + cache.count[j])
            a, stencil = cache.shape[part], cache.stencil[part]
            lam = cache.lebesgue[j]
            assert lam == pytest.approx(np.abs(a).sum(), rel=1e-14)
            assert abs(a.sum() - 1.0) <= 1e-12 * lam
            for ex in range(order + 1):
                for ey in range(order + 1 - ex):
                    p = grid.coords[:, 0] ** ex * grid.coords[:, 1] ** ey
                    assert abs(a @ p[stencil] - p[j]) <= 1e-12 * lam * np.abs(p).max()


class TestStencilCache:
    @staticmethod
    def assert_same(a, b):
        (out_a, rep_a), (out_b, rep_b) = a, b
        np.testing.assert_array_equal(out_a, out_b)
        assert rep_a.rows == rep_b.rows  # node, h, before and after, bit for bit
        assert rep_a.uncorrected == rep_b.uncorrected
        assert rep_a.lebesgue == rep_b.lebesgue

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16),
           order=st.integers(1, 3), max_growths=st.integers(0, 3))
    def test_any_query_order_gives_the_fresh_bits(self, seed, n, order, max_growths):
        # nested exposures, as a shrinking body gives, queried in both
        # orders through one cache and each through a fresh one
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        field = rng.standard_normal(n * n)
        cfg = MlsConfig(order=order, max_growths=max_growths)
        u = rng.random(exposed.size)
        subsets = [exposed[u < p] for p in (0.3, 0.6, 1.0)]
        fresh = [correct_field(field, e, history, grid, cfg) for e in subsets]
        for order_ in (slice(None), slice(None, None, -1)):
            cache = StencilCache()
            got = [correct_field(field, e, history, grid, cfg, cache) for e in subsets[order_]]
            for a, b in zip(got, fresh[order_]):
                self.assert_same(a, b)

    def test_new_history_set_replaces_entries(self):
        grid, rng = scatter(5, 14)
        exposed, history = moving_front(grid, rng)
        field = rng.standard_normal(grid.n_nodes)
        cfg = MlsConfig(order=2)
        fewer = history & (grid.coords[:, 0] < 0.8)  # the body grew at the right
        cache = StencilCache()
        outs = []
        for hist in (history, fewer, history):
            outs.append(correct_field(field, exposed, hist, grid, cfg, cache))
            self.assert_same(outs[-1], correct_field(field, exposed, hist, grid, cfg))
        assert not np.array_equal(outs[0][0], outs[1][0])
