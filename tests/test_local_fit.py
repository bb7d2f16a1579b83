"""The batched MLS correction against its per-node definition
(``local_fit_oracles``), plus polynomial reproduction on random 2D scatter,
the cached shape functions of the correction, and the stencil search
(``_Buckets``, a cell grid) against a brute-force scan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mbrom.mls
from local_fit_oracles import (
    batched_correct_oracle,
    brute_stencils,
    column_stack_shape_functions,
    correct_oracle,
)
from mbrom.data import SpatialGrid
from mbrom.mls import (
    MlsConfig,
    StencilCache,
    _Buckets,
    _poly_terms,
    _shape_functions,
    correct_field,
    wendland_c2,
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
        # on the rung h = 5; the ring is one tie group, and every trusted
        # node of the first gather's box sits on or beyond it
        side = np.arange(-8.0, 9.0)
        pts = np.array(np.meshgrid(side, side)).reshape(2, -1).T
        g = SpatialGrid(dim=2, coords=pts, quad_weights=np.ones(pts.shape[0]))
        r2 = np.sum(pts**2, axis=1)
        origin = np.flatnonzero(r2 == 0)
        assert np.sum(r2 == 25) == 12
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
        kernel, fit, fits = mbrom.mls._shape_functions, StencilCache._fit, []

        def spy(offsets, weights, counts, order_):
            fits[-1] += [kernel(offsets, weights, counts, order_), counts]
            return fits[-1][1]

        def spy_fit(self, nodes, *args):  # the nodes, in the order they are fitted
            fits.append([nodes])
            return fit(self, nodes, *args)

        for ex in range(order + 1):
            for ey in range(order + 1 - ex):
                p = grid.coords[:, 0] ** ex * grid.coords[:, 1] ** ey
                with mock.patch.object(mbrom.mls, "_shape_functions", spy), \
                        mock.patch.object(StencilCache, "_fit", spy_fit):
                    out, report = correct_field(p, exposed, history, grid, cfg)
                nodes, lam = report.nodes, np.array(report.lebesgue)
                assert np.all(np.abs(out[nodes] - p[nodes]) <= 1e-12 * lam * np.abs(p).max())
        assert len(fits) == (len(_poly_terms(2, order)) if nodes.size else 0)
        where = {int(j): i for i, j in enumerate(nodes)}
        for fitted, a, counts in fits:
            lam_fitted = lam[[where[int(j)] for j in fitted]]
            first = np.cumsum(counts) - counts
            np.testing.assert_allclose(lam_fitted, np.add.reduceat(np.abs(a), first), rtol=1e-14)
            assert np.all(np.abs(np.add.reduceat(a, first) - 1.0) <= 1e-12 * lam_fitted)


def kernel_outcome(kernel, *args):
    """The kernel's shape functions, or the text of its ValueError."""
    try:
        return kernel(*args)
    except ValueError as err:
        return str(err)


class TestKernelOracle:
    """The term-major kernel against the column-stack kernel it replaced
    (``local_fit_oracles``), bit for bit."""

    @staticmethod
    def batch(seed, dim, order, stencils, chunks):
        """A ragged batch of ``stencils`` stencils, or, for ``chunks`` > 1,
        one long enough to span that many ~4096-row chunks of the kernel."""
        rng = np.random.default_rng(seed)
        n = len(_poly_terms(dim, order))
        widest = int(rng.integers(n + 2, 4 * n + 40))
        step = 4096 // widest  # stencils per chunk
        T = stencils if chunks == 1 else (chunks - 1) * step + 1 + stencils % step
        counts = rng.integers(n + 1, widest + 1, size=T)
        counts[rng.integers(T)] = widest
        assert -(-T // step) >= chunks
        offsets = rng.uniform(-0.7, 0.7, (dim, counts.sum()))
        return offsets, wendland_c2(np.sqrt(np.sum(offsets**2, axis=0))), counts

    @pytest.mark.parametrize("dim, order", [(d, p) for d in (1, 2) for p in range(4)])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), stencils=st.integers(1, 40),
           chunks=st.sampled_from([1, 3, 4]))
    def test_term_major_kernel_gives_the_column_stack_bits(
        self, dim, order, seed, stencils, chunks
    ):
        args = (*self.batch(seed, dim, order, stencils, chunks), order)
        got = kernel_outcome(_shape_functions, *args)
        want = kernel_outcome(column_stack_shape_functions, *args)
        assert type(got) is type(want)
        if isinstance(want, str):  # a near-singular draw: the same error
            assert got == want
        else:
            assert np.array_equal(got, want)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
           chunks=st.sampled_from([1, 3]))
    def test_collinear_stencil_gives_the_same_error(self, seed, order, chunks):
        # the last stencil's points lie on the line y = 0.5 x: no fit of
        # order >= 1 resolves the direction across it
        offsets, weights, counts = self.batch(seed, 2, order, 5, chunks)
        last = slice(counts[:-1].sum(), None)
        offsets[1, last] = 0.5 * offsets[0, last]
        args = (offsets, weights, counts, order)
        with pytest.raises(ValueError, match="^rank-deficient moment matrix") as got:
            _shape_functions(*args)
        with pytest.raises(ValueError) as want:
            column_stack_shape_functions(*args)
        assert str(got.value) == str(want.value)


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

    def test_a_batch_over_several_chunks_gives_the_node_by_node_bits(self, monkeypatch):
        # a 70 x 70 lattice around a unit disk at order 3: the cold batch of
        # the exposed ring spans at least three chunks of the kernel, and
        # fitting it at once, in reverse or node by node fills the cache alike
        side = np.linspace(-3.0, 3.0, 70)
        pts = np.array(np.meshgrid(side, side)).reshape(2, -1).T
        grid = SpatialGrid(dim=2, coords=pts, quad_weights=np.full(len(pts), 36 / 69**2))
        r = np.sqrt(np.sum(pts**2, axis=1))
        history = r >= 1.0
        exposed = np.flatnonzero((r >= 0.8) & ~history)
        rng = np.random.default_rng(4)
        mean, modes = rng.standard_normal(len(pts)), rng.standard_normal((2, len(pts)))
        coeffs = np.array([0.3, -1.2])
        field = mean + coeffs @ modes
        cfg = MlsConfig(order=3)
        kernel, chunks = mbrom.mls._shape_functions, []

        def spy(offsets, weights, counts, order):
            chunks.append(-(-counts.size // (4096 // int(counts.max()))))
            return kernel(offsets, weights, counts, order)

        monkeypatch.setattr(mbrom.mls, "_shape_functions", spy)
        caches = []
        for batches in ([exposed], [exposed[::-1]], [[j] for j in exposed]):
            cache = StencilCache()
            for e in batches:
                correct_field(field, e, history, grid, cfg, cache, (mean, modes, coeffs))
            caches.append(cache)
        assert chunks[0] >= 3 and chunks[1] >= 3
        for cache in caches[1:]:
            np.testing.assert_array_equal(cache.rows, caches[0].rows)
            np.testing.assert_array_equal(cache.h, caches[0].h)
            np.testing.assert_array_equal(cache.lebesgue, caches[0].lebesgue)
        assert np.isfinite(caches[0].h[exposed]).all()

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


def search(pts, targets, ladder, k, side):
    """``_Buckets.stencils`` with its stencils split per target: (rung,
    {target: (indices, distances)})."""
    rung, fitted, idx, d, sizes = _Buckets(pts, side).stencils(
        targets, np.asarray(ladder, dtype=float), k
    )
    assert sizes.sum() == idx.size == d.size and fitted.size == sizes.size
    ends = np.cumsum(sizes)
    stencils = {int(t): (idx[e - m : e], d[e - m : e]) for t, e, m in zip(fitted, ends, sizes)}
    assert sorted(stencils) == np.flatnonzero(rung < len(ladder)).tolist()
    return rung, stencils


def assert_matches_brute_force(pts, targets, ladder, k, side):
    """Rungs, stencils and distances bit for bit against full scans: the
    rung is the first with k nodes strictly inside, and the stencil is
    ``brute_stencils`` at the rung's radius."""
    ladder = np.asarray(ladder, dtype=float)
    rung, stencils = search(pts, targets, ladder, k, side)
    if k > pts.shape[0]:
        want = np.full(len(targets), ladder.size)
    else:
        want = np.searchsorted(ladder, np.sqrt(brute_kth_d2(pts, targets, k)), side="right")
    np.testing.assert_array_equal(rung, want)
    for t, (idx, d) in stencils.items():
        ref_idx, ref_d2 = brute_stencils(pts, targets[t : t + 1], ladder[rung[t] : rung[t] + 1])
        n = np.isfinite(ref_d2[0]).sum()
        np.testing.assert_array_equal(idx, ref_idx[0, :n])
        assert d.tobytes() == np.sqrt(ref_d2[0, :n]).tobytes()
        # the k-th stencil node is the k-th nearest node
        assert d[k - 1] == np.sqrt(brute_kth_d2(pts, targets[t : t + 1], k)[0])
    return rung, stencils


class TestNearest:
    """The rungs of ``_Buckets.stencils`` (the first rung of the ladder
    with k nodes strictly inside) against a brute-force scan."""

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
        return scale * pts, scale * 0.5 * np.array(targets, dtype=float), scale, side

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_lattice_matches_brute_force(self, data, dim):
        pts, targets, scale, side = self.lattice(data, dim)
        k = data.draw(st.integers(1, pts.shape[0] + 3))  # includes k >= n
        # rungs on half-unit radii, so that they often fall exactly on a
        # distance, and cells from a fraction of a node spacing to more
        # than the lattice
        reach2 = data.draw(st.lists(st.integers(0, 4 * (side + 2) ** 2), min_size=1, max_size=9))
        cell = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.5, 10.0]))
        ladder = scale * 0.5 * np.sqrt(np.unique(reach2))
        assert_matches_brute_force(pts, targets, ladder, k, scale * cell)

    def test_tie_group_is_gathered_at_most_twice(self, monkeypatch):
        # 12 lattice nodes at distance 5 from the origin tie for the nearest
        ring = np.array(
            [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25],
            dtype=float,
        )
        pts = np.vstack([ring[::-1], [[9.0, 9.0], [-9.0, 8.0]]])
        targets = np.array([[0.0, 0.0], [9.0, 8.5]])
        gathered = []

        def spy(self, targets_, a, b, counts):
            gathered.extend(map(tuple, targets_))
            return gather(self, targets_, a, b, counts)

        gather = _Buckets._gather
        monkeypatch.setattr(_Buckets, "_gather", spy)
        ladder = [1.0, 4.0, 5.0, 5.5, 8.0, 13.0, 14.0]
        for k in (1, 4, 5, 12, 13):
            for side in (0.5, 1.0, 2.5, 30.0):
                gathered.clear()
                rung, _ = assert_matches_brute_force(pts, targets, ladder, k, side)
                assert max(gathered.count(tuple(x)) for x in targets) <= 2
                if k <= 12:  # the whole ring ties: nothing inside 5, all inside 5.5
                    assert rung[0] == 3


class TestBalls:
    """The stencils of ``_Buckets.stencils`` (the nodes strictly inside the
    rung, nearest first, ties to the lower index) against an integer brute
    force, and against ``brute_stencils`` at every scale."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_lattice_matches_brute_force(self, data, dim):
        # nodes on an integer lattice, targets on the half lattice, and rungs
        # (half units) that often fall exactly on a distance: at scale 1,
        # membership is decided in integers, with no rounding
        side = data.draw(st.integers(2, 7))
        cells = np.array(np.meshgrid(*[np.arange(side)] * dim)).reshape(dim, -1).T
        keep = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        nodes = cells[np.flatnonzero(keep)] if sum(keep) else cells[:1]
        T = data.draw(st.integers(1, 12))
        halves = np.array(data.draw(st.lists(
            st.lists(st.integers(-2, 2 * side + 2), min_size=dim, max_size=dim),
            min_size=T, max_size=T,
        )))
        reach2 = np.unique(data.draw(st.lists(
            st.integers(0, 4 * (side + 2) ** 2), min_size=T, max_size=T
        )))
        scale = data.draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
        k = data.draw(st.integers(1, nodes.shape[0]))
        cell = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.5, 10.0]))
        pts, targets = scale * nodes, scale * 0.5 * halves
        ladder = scale * 0.5 * np.sqrt(reach2)
        rung, stencils = assert_matches_brute_force(pts, targets, ladder, k, scale * cell)
        if scale != 1.0:
            return
        for row, (idx, d) in stencils.items():
            exact = np.sum((2 * nodes - halves[row]) ** 2, axis=1)
            inside = np.flatnonzero(exact < reach2[rung[row]])
            np.testing.assert_array_equal(idx, inside[np.lexsort((inside, exact[inside]))])
            assert d.tobytes() == np.sqrt(exact[idx] / 4.0).tobytes()


class TestSearchEdges:
    """Trusted sets and targets at the edges of the cell grid."""

    def test_targets_outside_the_bounding_box(self):
        pts = np.array(np.meshgrid(np.arange(6.0), np.arange(4.0))).reshape(2, -1).T
        targets = np.array([[-3.0, 1.5], [10.0, 10.0], [2.5, -0.5], [-40.0, -40.0], [6.5, 4.5]])
        for side in (0.5, 1.0, 3.0):
            rung, _ = assert_matches_brute_force(pts, targets, [1.0, 2.0, 4.0, 8.0, 16.0], 6, side)
            assert rung[3] == 5 and np.sum(rung < 5) == 4  # one beyond the last rung

    def test_far_offset_grid(self):
        # a grid far from the coordinate origin: nodes near 1e6 with a
        # spacing of 0.1, where coordinates and distances round at 1e-10
        rng = np.random.default_rng(7)
        pts = 1e6 + 0.1 * np.array(np.meshgrid(np.arange(9.0), np.arange(9.0))).reshape(2, -1).T
        targets = 1e6 + rng.uniform(-0.2, 1.0, (40, 2))
        for side in (0.05, 0.1, 0.3):
            assert_matches_brute_force(pts, targets, 0.1 * 1.5 ** np.arange(6), 9, side)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_node_a_hair_inside_the_rung_on_a_cell_edge(self, dim):
        # the nodes at distance 3 along the axes are inside the rung
        # 3 + 1e-12 and lie on cell edges; the box of that rung is the one
        # gathered, so a box not widened past the rung would drop them
        line = np.arange(-5.0, 6.0) if dim == 2 else np.arange(-10.0, 11.0)
        pts = np.array(np.meshgrid(*[line] * dim)).reshape(dim, -1).T
        targets = np.zeros((1, dim))
        k = 20 if dim == 2 else 4
        ladder = [1.0, 3.0 + 1e-12, 10.0]
        for side in (0.5, 1.0, 3.0):
            rung, stencils = assert_matches_brute_force(pts, targets, ladder, k, side)
            assert rung[0] == 1
            assert stencils[0][1][-1] == 3.0 and stencils[0][1].size == (29 if dim == 2 else 7)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exactly_required_neighbors_trusted(self, dim):
        # the trusted set is the required_neighbors nodes nearest the
        # exposed ones: a node is fitted once the ladder reaches them all
        if dim == 1:
            g = SpatialGrid.uniform_1d(0.0, 1.0, 60)
            centre = np.array([0.5])
        else:
            xs = np.linspace(0.0, 1.0, 12)
            pts = np.array(np.meshgrid(xs, xs)).reshape(2, -1).T
            g = SpatialGrid(dim=2, coords=pts, quad_weights=np.full(144, 1 / 121))
            centre = np.array([0.5, 0.5])
        cfg = MlsConfig(order=1, max_growths=5)
        need = cfg.required_neighbors(dim)
        order = np.lexsort((np.arange(g.n_nodes), np.sum((g.coords - centre) ** 2, axis=1)))
        history = np.zeros(g.n_nodes, bool)
        history[order[2 : 2 + need]] = True
        exposed = order[:2]
        field = np.cos(3 * g.coords.sum(axis=1))
        report = TestCorrectionOracle.compare(field, exposed, history, g, cfg)
        assert len(report.rows) == 2
        for node, h, *_ in report.rows:
            d = np.sqrt(np.sum((g.coords[history] - g.coords[node]) ** 2, axis=1))
            assert d.max() < h
        trusted = g.coords[history]
        ladder = 3 * g.spacing() * 1.5 ** np.arange(6)
        assert_matches_brute_force(trusted, g.coords[exposed], ladder, need, ladder[0] / 2)

    def test_every_target_past_the_last_rung(self):
        pts = np.array(np.meshgrid(np.arange(5.0), np.arange(5.0))).reshape(2, -1).T
        targets = np.array([[2.0, 2.0], [0.5, 0.5], [30.0, 0.0]])
        ladder = np.array([0.5, 1.0, 1.5])
        for k in (10, 25, 26):
            rung, fitted, idx, d, sizes = _Buckets(pts, 1.0).stencils(targets, ladder, k)
            assert rung.tolist() == [3, 3, 3]
            assert fitted.size == idx.size == d.size == sizes.size == 0
        g = SpatialGrid(dim=2, coords=pts, quad_weights=np.ones(25))
        history = np.ones(25, bool)
        history[[12, 6]] = False
        out, report = correct_field(np.ones(25), [12, 6], history, g,
                                    MlsConfig(order=1, kernel_len=0.5, max_growths=1))
        assert report.rows == [] and report.uncorrected == [12, 6]
        np.testing.assert_array_equal(out, np.ones(25))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_one_node_wide_strip(self, axis):
        # every trusted node on one line of the plane: the cell grid is one
        # row (or one column) of cells
        line = np.arange(20.0) * 0.25
        pts = np.zeros((20, 2))
        pts[:, axis] = line
        rng = np.random.default_rng(axis)
        targets = rng.uniform(-1.0, 6.0, (30, 2))
        for side in (0.1, 0.25, 1.0):
            assert_matches_brute_force(pts, targets, 0.5 * 1.5 ** np.arange(5), 4, side)
