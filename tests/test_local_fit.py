"""The batched, k-d-tree-indexed MLS correction against its per-node
definition (``local_fit_oracles``), plus polynomial reproduction on random
2D scatter, the cached shape functions of the correction, and the stencil
search (``_kth_d2``, ``_balls``) against a brute-force scan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import mbrom.mls
from local_fit_oracles import batched_correct_oracle, correct_oracle
from mbrom.data import SpatialGrid
from mbrom.mls import (
    _PAD,
    MlsConfig,
    StencilCache,
    _balls,
    _kth_d2,
    _poly_terms,
    _tree,
    correct_field,
)

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
        nodes = report.nodes
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

    def test_rung_equal_to_distance_is_skipped_2d(self):
        # the 4th-nearest trusted node lies on the 12-node ring r = 5, exactly
        # on the rung h = 5; the ring is a tie group longer than the search's
        # pad, so the 4 + _PAD candidates of its tree query all sit on it
        side = np.arange(-8.0, 9.0)
        pts = np.array(np.meshgrid(side, side)).reshape(2, -1).T
        g = SpatialGrid(dim=2, coords=pts, quad_weights=np.ones(pts.shape[0]))
        r2 = np.sum(pts**2, axis=1)
        origin = np.flatnonzero(r2 == 0)
        assert np.sum(r2 == 25) == 12 >= 4 + _PAD
        field = np.random.default_rng(3).standard_normal(pts.shape[0])
        cfg = MlsConfig(order=0, kernel_len=5.0, min_neighbor_factor=4.0)
        report = self.compare(field, origin, r2 >= 25, g, cfg)
        assert report.rows[0][1] == 7.5


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
        nodes = report.nodes
        lam = np.array(report.lebesgue)
        assert np.all(np.abs(out[nodes] - ref[nodes]) <= 1e-12 * lam * np.abs(field).max())
        np.testing.assert_array_equal(np.delete(out, nodes), np.delete(ref, nodes))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16),
           order=st.integers(0, 3))
    def test_partition_of_unity_and_reproduction(self, seed, n, order):
        # each corrected node's shape functions, as the kernel returns them,
        # sum to 1 and to Lambda_j in absolute value, and the correction
        # reproduces every monomial of the fit's order
        grid, rng = scatter(seed, n)
        exposed, history = moving_front(grid, rng)
        cfg = MlsConfig(order=order)
        kernel, fits = mbrom.mls._shape_functions, []

        def spy(offsets, weights, counts, order_):
            fits.append((kernel(offsets, weights, counts, order_), counts))
            return fits[-1][0]

        for ex in range(order + 1):
            for ey in range(order + 1 - ex):
                p = grid.coords[:, 0] ** ex * grid.coords[:, 1] ** ey
                with mock.patch.object(mbrom.mls, "_shape_functions", spy):
                    out, report = correct_field(p, exposed, history, grid, cfg)
                nodes, lam = report.nodes, np.array(report.lebesgue)
                assert np.all(np.abs(out[nodes] - p[nodes]) <= 1e-12 * lam * np.abs(p).max())
        assert len(fits) == (len(_poly_terms(2, order)) if nodes.size else 0)
        for a, counts in fits:
            first = np.cumsum(counts) - counts
            np.testing.assert_allclose(lam, np.add.reduceat(np.abs(a), first), rtol=1e-14)
            assert np.all(np.abs(np.add.reduceat(a, first) - 1.0) <= 1e-12 * lam)


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


def brute_kth_d2(pts, targets, k):
    """Each target's k-th smallest exact squared distance to ``pts`` (the
    n-th when k > n) by a full scan."""
    d2 = np.array([np.sum((pts - x) ** 2, axis=1) for x in targets])
    return np.sort(d2, axis=1)[:, min(k, pts.shape[0]) - 1]


class TestNearest:
    """``_kth_d2`` (one padded tree query, ball search for long tie groups)
    against a brute-force scan."""

    @staticmethod
    def lattice(data, dim):
        # distinct nodes of a small integer lattice, scaled so that squared
        # distances tie exactly (scale 1) or only up to rounding (0.1, 1/3)
        side = data.draw(st.integers(2, 7))
        cells = np.array(np.meshgrid(*[np.arange(side)] * dim)).reshape(dim, -1).T
        keep = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        pts = cells[np.flatnonzero(keep)] if sum(keep) else cells[:1]
        scale = data.draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
        T = data.draw(st.integers(1, 12))
        targets = data.draw(
            st.lists(
                st.lists(st.integers(-2, 2 * side + 2), min_size=dim, max_size=dim),
                min_size=T, max_size=T,
            )
        )
        return scale * pts, scale * 0.5 * np.array(targets, dtype=float)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_lattice_matches_brute_force(self, data, dim):
        pts, targets = self.lattice(data, dim)
        k = data.draw(st.integers(1, pts.shape[0] + 3))  # includes k >= n
        want = brute_kth_d2(pts, targets, k)
        for tree in (_tree(pts), cKDTree(pts)):
            assert _kth_d2(tree, pts, targets, k).tobytes() == want.tobytes()

    def test_tie_group_past_the_pad_uses_ball_search(self, monkeypatch):
        # 12 lattice nodes at distance 5 from the origin tie for the nearest
        ring = np.array(
            [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25],
            dtype=float,
        )
        pts = np.vstack([ring[::-1], [[9.0, 9.0], [-9.0, 8.0]]])
        targets = np.array([[0.0, 0.0], [9.0, 8.5]])
        assert ring.shape[0] > 1 + _PAD
        calls = []

        def spy(tree, pts_, targets_, r):
            calls.append(targets_.shape[0])
            return balls(tree, pts_, targets_, r)

        balls = mbrom.mls._balls
        monkeypatch.setattr(mbrom.mls, "_balls", spy)
        for k in (1, 4, 5, 12, 13):
            got = _kth_d2(_tree(pts), pts, targets, k)
            assert got.tobytes() == brute_kth_d2(pts, targets, k).tobytes()
        # the origin row alone, at k = 1 and 4: its k + _PAD candidates all
        # sit on the ring; at k >= 5 the query reaches past it
        assert calls == [1, 1]


class TestBalls:
    """``_balls`` (ball sizes, then one k-nearest query out to the largest
    radius) against an integer brute force."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_lattice_matches_brute_force(self, data, dim):
        # nodes on an integer lattice, targets on the half lattice, and radii
        # (half units) that often fall exactly on a distance: membership is
        # decided in integers, with no rounding
        side = data.draw(st.integers(2, 7))
        cells = np.array(np.meshgrid(*[np.arange(side)] * dim)).reshape(dim, -1).T
        keep = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        nodes = cells[np.flatnonzero(keep)] if sum(keep) else cells[:1]
        T = data.draw(st.integers(1, 12))
        halves = np.array(data.draw(st.lists(
            st.lists(st.integers(-2, 2 * side + 2), min_size=dim, max_size=dim),
            min_size=T, max_size=T,
        )))
        reach2 = np.array(data.draw(st.lists(
            st.integers(0, 4 * (side + 2) ** 2), min_size=T, max_size=T
        )))
        scale = data.draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
        pts, targets = scale * nodes, scale * 0.5 * halves
        r = scale * 0.5 * np.sqrt(reach2)
        for tree in (_tree(pts), cKDTree(pts)):
            idx, d2 = _balls(tree, pts, targets, r)
            for row in range(T):
                inside = np.flatnonzero(
                    np.sum((2 * nodes - halves[row]) ** 2, axis=1) <= reach2[row]
                )
                exact = np.sum((pts[inside] - targets[row]) ** 2, axis=1)
                order = np.lexsort((inside, exact))
                n = inside.size
                np.testing.assert_array_equal(idx[row, :n], inside[order])
                assert d2[row, :n].tobytes() == exact[order].tobytes()
                assert np.all(d2[row, n:] == np.inf)
