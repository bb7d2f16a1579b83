"""POD decomposition, truncation, reconstruction and horizon tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrom.benchmarks import BurgersConfig, burgers_snapshots
from mbrom.data import SnapshotSet, SpatialGrid, inner_product
from mbrom.pod import (
    PodBasis,
    decompose,
    pod_horizon,
    project,
    reconstruct,
    reconstruction_error,
    ric,
    truncate,
    truncate_to,
)
from pod_oracles import correlation_matrix


def unit_grid(n):
    x = (np.arange(n) + 0.5) / n
    return SpatialGrid(dim=1, coords=x[:, None], quad_weights=np.full(n, 1.0 / n))


def random_set(seed, m=6, n=40, scale=1.0):
    rng = np.random.default_rng(seed)
    return SnapshotSet(unit_grid(n), np.arange(float(m)),
                       scale * rng.standard_normal((m, n)))


def spectrum_set(lambdas, n=60):
    """Snapshot set whose correlation spectrum equals ``lambdas`` exactly.

    Build zero-sum orthonormal coefficient vectors and orthonormal spatial
    shapes, then synthesize fields from them.
    """
    lam = np.asarray(lambdas, float)
    m = lam.size + 1
    g = unit_grid(n)
    x = g.coords[:, 0]
    # orthonormalize sinusoids under the grid inner product
    shapes = []
    for k in range(lam.size):
        v = np.sin((k + 1) * np.pi * x)
        for s in shapes:
            v = v - inner_product(v, s, g) * s
        shapes.append(v / np.sqrt(inner_product(v, v, g)))
    # zero-sum orthonormal weight vectors via QR against the ones vector
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(
        np.column_stack([np.ones(m)] + [rng.standard_normal(m) for _ in lam])
    )[0][:, 1:]
    fields = np.zeros((m, n))
    for k in range(lam.size):
        fields += np.sqrt(lam[k]) * np.outer(basis[:, k], shapes[k])
    return SnapshotSet(g, np.arange(float(m)), fields)


class TestCorrelationMatrix:
    def test_two_snapshot_antisymmetry(self):
        g = unit_grid(20)
        v = np.sin(np.pi * g.coords[:, 0])
        s = SnapshotSet(g, [0.0, 1.0], np.array([v, -v]) + 3.0)
        c = inner_product(s.fluct[0], s.fluct[0], g)
        np.testing.assert_allclose(
            correlation_matrix(s), [[c, -c], [-c, c]], rtol=1e-12
        )

    def test_constant_fields(self):
        g = unit_grid(10)
        s = SnapshotSet(g, [0.0, 1.0, 2.0], np.ones((3, 10)) * 2.5)
        np.testing.assert_allclose(correlation_matrix(s), 0.0, atol=1e-15)

    def test_against_double_loop(self):
        s = random_set(3, m=4)
        A = correlation_matrix(s)
        oracle = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                oracle[i, j] = inner_product(s.fluct[i], s.fluct[j], s.grid)
        np.testing.assert_allclose(A, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_exactly_symmetric(self):
        A = correlation_matrix(random_set(9))
        np.testing.assert_array_equal(A, A.T)


class TestDecompose:
    def test_two_snapshot_pair(self):
        g = unit_grid(30)
        v = np.sin(np.pi * g.coords[:, 0])
        s = SnapshotSet(g, [0.0, 1.0], np.array([v, -v]))
        b = decompose(s)
        c = inner_product(s.fluct[0], s.fluct[0], g)
        np.testing.assert_allclose(b.eigenvalues, [2 * c, 0.0], atol=1e-12)
        # leading mode is the normalized snapshot fluctuation
        phi = b.modes[0]
        ref = s.fluct[0] / np.sqrt(c)
        assert min(np.abs(phi - ref).max(), np.abs(phi + ref).max()) < 1e-10

    def test_orthonormality(self):
        for seed in (0, 1, 2):
            s = random_set(seed, m=8)
            b = decompose(s)
            keep = b.eigenvalues > 0.0
            gram = np.array(
                [
                    [inner_product(b.modes[k], b.modes[l], s.grid) for l in range(8)]
                    for k in range(8)
                ]
            )
            expect = np.diag(keep.astype(float))
            assert np.abs(gram - expect).max() <= 1e-8

    def test_trace_identity_burgers(self):
        cfg = BurgersConfig(reynolds=100.0, nx=201)
        s = burgers_snapshots(cfg, 0.3, 0.5, 6)
        b = decompose(s)
        energy = sum(
            inner_product(s.fluct[i], s.fluct[i], s.grid) for i in range(6)
        )
        assert b.eigenvalues.sum() == pytest.approx(energy, rel=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12),
           n=st.integers(2, 60))
    def test_matches_correlation_oracle(self, seed, m, n):
        # on random positive weights, the SVD route yields the eigenpairs of A
        rng = np.random.default_rng(seed)
        grid = SpatialGrid(dim=1, coords=np.sort(rng.random(n))[:, None],
                           quad_weights=rng.uniform(0.01, 2.0, n))
        s = SnapshotSet(grid, np.arange(float(m)), rng.standard_normal((m, n)))
        A = correlation_matrix(s)
        b = decompose(s)
        scale = np.abs(A).max()
        np.testing.assert_allclose(
            b.eigenvalues, np.linalg.eigvalsh(A)[::-1], rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_allclose(b.coeffs @ b.coeffs.T, A, rtol=0, atol=1e-12 * scale)

    def test_degenerate_input(self):
        g = unit_grid(10)
        s = SnapshotSet(g, [0.0, 1.0], np.full((2, 10), 3.0))
        with pytest.raises(ValueError, match="degenerate"):
            decompose(s)


class TestTruncate:
    def basis_with(self, lambdas):
        lam = np.asarray(lambdas, float)
        m = lam.size
        return PodBasis(
            eigenvalues=lam,
            modes=np.zeros((m, 4)),
            retained=m,
            coeffs=np.zeros((m, m)),
        )

    def test_nine_one(self):
        b = self.basis_with([9.0, 1.0])
        t1 = truncate(b, 0.4)
        assert t1.retained == 1
        assert t1.rrms_tail == pytest.approx(np.sqrt(0.1), rel=1e-12)
        assert truncate(b, 0.3).retained == 2

    def test_loose_threshold(self):
        assert truncate(self.basis_with([9.0, 1.0]), 0.999).retained == 1

    def test_monotone_in_alpha(self):
        b = self.basis_with([100.0, 10.0, 1.0, 0.1, 0.01])
        alphas = np.logspace(-6, -0.01, 25)
        rs = [truncate(b, a).retained for a in alphas]
        assert all(r1 >= r2 for r1, r2 in zip(rs, rs[1:]))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            truncate(self.basis_with([1.0, 0.5]), 1.5)

    def test_truncate_to_given_count(self):
        b = self.basis_with([9.0, 1.0])
        one = truncate_to(b, 1)
        assert one.retained == 1 and one.rrms_tail == truncate(b, 0.4).rrms_tail
        assert one.modes.shape == (1, 4) and one.coeffs.shape == (2, 1)
        assert truncate_to(b, 2).rrms_tail == 0.0
        for r in (0, 3):
            with pytest.raises(ValueError, match="cannot keep"):
                truncate_to(b, r)


class TestProjectReconstruct:
    def test_full_round_trip(self):
        s = random_set(12, m=6, n=50)
        b = decompose(s)
        for i in range(6):
            rec = reconstruct(b, s.mean, b.coeffs[i])
            np.testing.assert_allclose(rec, s.fields[i], rtol=0,
                                       atol=1e-8 * np.abs(s.fields).max())

    def test_project_matches_eigvec_formula(self):
        s = random_set(4, m=7)
        b = decompose(s)
        coeffs = project(s, b)
        np.testing.assert_allclose(
            coeffs, b.coeffs, rtol=0, atol=1e-10 * np.abs(b.coeffs).max()
        )

    def test_zero_fluct_projects_to_zero(self):
        s = random_set(1, m=5)
        b = decompose(s)
        g = s.grid
        flat = SnapshotSet(g, [0.0, 1.0], np.full((2, g.n_nodes), 1.25))
        np.testing.assert_allclose(project(flat, b), 0.0, atol=1e-12)

    def test_zero_coeffs_give_mean(self):
        s = random_set(2, m=5)
        b = truncate(decompose(s), 0.5)
        np.testing.assert_array_equal(
            reconstruct(b, s.mean, np.zeros(b.retained)), s.mean
        )

    def test_length_mismatch(self):
        s = random_set(2, m=5)
        b = truncate(decompose(s), 0.5)
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(b, s.mean, np.zeros(b.retained + 1))

    def test_tail_energy_identity(self):
        # aggregate reconstruction error equals sqrt(tail energy) for every R
        for seed in (0, 5, 9):
            s = random_set(seed, m=8)
            b = decompose(s)
            scale = np.sqrt(b.eigenvalues.sum())
            for r in range(0, 9):
                direct = reconstruction_error(s, b, r)
                formula = np.sqrt(b.eigenvalues[r:].sum())
                assert abs(direct - formula) <= 1e-8 * scale


class TestRic:
    def test_three_one(self):
        b = PodBasis(np.array([3.0, 1.0]), np.zeros((2, 4)), 2, np.zeros((2, 2)))
        np.testing.assert_allclose(ric(b), [75.0, 25.0])

    def test_single_mode(self):
        b = PodBasis(np.array([2.0]), np.zeros((1, 4)), 1, np.zeros((1, 1)))
        np.testing.assert_allclose(ric(b), [100.0])

    def test_sums_to_100(self):
        s = random_set(6, m=7)
        b = decompose(s)
        assert ric(b).sum() == pytest.approx(100.0, abs=1e-8)

    def test_all_zero_spectrum_rejected(self):
        b = PodBasis(np.zeros(3), np.zeros((3, 4)), 3, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            ric(b)

    def test_low_re_decays_faster(self):
        res = {}
        for re in (1.0, 500.0):
            cfg = BurgersConfig(reynolds=re, nx=201)
            s = burgers_snapshots(cfg, 0.3, 0.5, 20)
            b = decompose(s)
            res[re] = ric(b)[0]
        assert res[1.0] > res[500.0]


class TestPodHorizon:
    def basis_with(self, lambdas, retained):
        lam = np.asarray(lambdas, float)
        return PodBasis(lam, np.zeros((lam.size, 4)), retained,
                        np.zeros((lam.size, lam.size)))

    def test_reference_arithmetic(self):
        b = self.basis_with([100.0, 10.0, 1.0, 0.1, 0.01], retained=2)
        h = pod_horizon(b, 0.3, 0.5, 0.3)
        expected = 0.5 + 0.2 * 0.3 * (np.log(10.0) - np.log(0.1)) / 2
        assert h.t_star == pytest.approx(expected, abs=1e-12)
        assert h.t_star == pytest.approx(0.6381551055796427, abs=1e-12)
        assert not h.unbounded

    def test_beta_to_zero(self):
        b = self.basis_with([100.0, 10.0, 1.0, 0.1, 0.01], retained=2)
        assert pod_horizon(b, 0.3, 0.5, 1e-15).t_star == pytest.approx(0.5, abs=1e-12)

    def test_span_linearity(self):
        b = self.basis_with([100.0, 10.0, 1.0, 0.1, 0.01], retained=2)
        d1 = pod_horizon(b, 0.3, 0.5, 0.3).t_star - 0.5
        d2 = pod_horizon(b, 0.1, 0.5, 0.3).t_star - 0.5
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_monotone_in_beta(self):
        b = self.basis_with([100.0, 10.0, 1.0, 0.1, 0.01], retained=2)
        stars = [pod_horizon(b, 0.3, 0.5, bb).t_star for bb in (0.1, 0.2, 0.4, 0.8)]
        assert all(a <= c for a, c in zip(stars, stars[1:]))

    def test_short_spectrum_unbounded(self):
        b = self.basis_with([10.0, 1.0, 0.1], retained=2)
        with pytest.warns(UserWarning, match="no forecast bound"):
            h = pod_horizon(b, 0.0, 1.0, 0.3)
        assert h.unbounded and np.isinf(h.t_star)

    def test_roundoff_tail_unbounded(self):
        b = self.basis_with([10.0, 1.0, 0.1, 1e-16], retained=2)
        with pytest.warns(UserWarning):
            assert pod_horizon(b, 0.0, 1.0, 0.3).unbounded


class TestSpectrumFixture:
    def test_designed_spectrum(self):
        lam = [4.0, 0.25]
        s = spectrum_set(lam)
        b = decompose(s)
        np.testing.assert_allclose(b.eigenvalues[:2], lam, rtol=1e-9)
        np.testing.assert_allclose(b.eigenvalues[2:], 0.0, atol=1e-12)
