"""GP kernel, likelihood, training, prediction and horizon tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve
from scipy.linalg.lapack import dtrtrs

import gpr_oracles as oracle
from mbrom.gpr import (
    GprModel,
    GprStack,
    Kernel,
    energy_weighted,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    kernel_matrix,
    nlml,
    train,
)
from mbrom.rom import _load_gp, _save_gp, build, forecast, load_rom_model, save_rom_model
from test_gpr_training import FIXTURES, _disk_snapshots


class TestKernelMatrix:
    def test_zero_distance(self):
        k = Kernel(theta_f=2.0, theta_l=3.0)
        K = kernel_matrix(k, [1.0, 2.0], [1.0, 2.0])
        np.testing.assert_allclose(np.diag(K), 4.0)

    def test_half_height_distance(self):
        # the kernel halves when theta_l * |dt| = sqrt(2 ln 2)
        k = Kernel(theta_f=1.5, theta_l=0.7)
        d = np.sqrt(2.0 * np.log(2.0)) / 0.7
        K = kernel_matrix(k, [0.0], [d])
        assert K[0, 0] == pytest.approx(1.5**2 / 2.0, rel=1e-12)

    def test_far_distance(self):
        k = Kernel(1.0, 1.0)
        assert kernel_matrix(k, [0.0], [100.0])[0, 0] < 1e-300

    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            Kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            Kernel(1.0, -1.0)


class TestNlml:
    def test_single_point_value(self):
        val, _ = nlml(Kernel(1.0, 1.0), 0.0, [0.0], [2.0])
        expected = 0.5 * 4.0 + 0.5 * np.log(2.0 * np.pi)
        assert val == pytest.approx(expected, abs=1e-6)
        assert val == pytest.approx(2.9189385332046727, abs=1e-6)

    def test_zero_outputs(self):
        k = Kernel(1.3, 2.0)
        t = np.linspace(0, 1, 5)
        val, _ = nlml(k, 0.1, t, np.zeros(5))
        C = kernel_matrix(k, t, t) + 0.1 * np.eye(5) + 1e-10 * 1.3**2 * np.eye(5)
        expected = 0.5 * np.linalg.slogdet(C)[1] + 2.5 * np.log(2 * np.pi)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_gradient_against_finite_differences(self):
        # analytic gradient vs central differences in the three log-parameters
        step = 1e-5
        for seed in range(50):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(0, 3, 8))
            y = rng.standard_normal(8)
            p = rng.uniform([-0.5, -0.5, -2.5], [0.5, 0.5, -0.5], 3)

            def value(q):
                v, _ = nlml(Kernel(np.exp(q[0]), np.exp(q[1])), np.exp(2 * q[2]), t, y)
                return v

            _, grad = nlml(Kernel(np.exp(p[0]), np.exp(p[1])), np.exp(2 * p[2]), t, y)
            for i in range(3):
                e = np.zeros(3)
                e[i] = step
                fd = (value(p + e) - value(p - e)) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestTrain:
    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 10)
        m = train(t, np.full(10, 5.0))
        mu, sg = m.predict(np.linspace(0.0, 1.0, 37))
        np.testing.assert_allclose(mu, 5.0, rtol=1e-9)
        assert sg.max() <= 1e-6 * 5.0 + 1e-8

    def test_recovers_length_scale_of_gp_draw(self):
        true = Kernel(theta_f=1.2, theta_l=2.0)
        t = np.linspace(0.0, 3.0, 25)
        rng = np.random.default_rng(0)
        K = kernel_matrix(true, t, t) + 1e-10 * np.eye(25)
        y = np.linalg.cholesky(K) @ rng.standard_normal(25)
        m = train(t, y)
        assert abs(np.log(m.theta_l) - np.log(true.theta_l)) < 0.5

    def test_noiseless_sine_interpolation(self):
        t = np.linspace(0.0, 2.0, 20)  # two periods
        y = np.sin(2.0 * np.pi * t)
        m = train(t, y)
        mid = 0.5 * (t[:-1] + t[1:])
        mu, _ = m.predict(mid)
        truth = np.sin(2.0 * np.pi * mid)
        assert np.abs(mu - truth).max() <= 1e-3 * np.abs(truth).max()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="2 training"):
            train([0.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            train([0.0, 1.0], [np.nan, 1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0, 2, 12))
        y = rng.standard_normal(12)
        m1, m2 = train(t, y), train(t, y)
        assert m1.kernel == m2.kernel and m1.noise_var == m2.noise_var


class TestPredict:
    def test_training_point_reproduction(self):
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(0, 2, 9))
        y = np.sin(3 * t) + 0.3
        m = GprModel(Kernel(1.0, 1.5), 0.0, t, y)  # noise = jitter only
        mu, _ = m.predict(t)
        np.testing.assert_allclose(mu, y, rtol=1e-6)

    def test_single_point_closed_form(self):
        m = GprModel(Kernel(1.0, 1.0), 0.0, np.array([0.0]), np.array([1.0]))
        mu0, s0 = m.predict(0.0)
        assert mu0[0] == pytest.approx(1.0, abs=1e-9)
        assert s0[0] <= 1e-4  # at the jitter floor
        muf, sf = m.predict(50.0)
        assert muf[0] == pytest.approx(m.y_mean, abs=1e-12)
        assert sf[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_query_rejected(self, bad):
        m = GprModel(Kernel(1.0, 1.0), 1e-4, np.linspace(0.0, 1.0, 5), np.arange(5.0))
        with pytest.raises(ValueError, match=f"query time {bad} is not finite"):
            m.predict([0.5, bad])

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(13)
        t = np.sort(rng.uniform(0, 1, 6))
        y = rng.standard_normal(6)
        k = Kernel(0.8, 2.5)
        noise = 0.01
        m = GprModel(k, noise, t, y)
        tq = np.linspace(-0.5, 1.5, 11)
        mu, sg = m.predict(tq)

        # direct dense solve of the posterior formulas, no Cholesky reuse
        C = kernel_matrix(k, t, t) + (noise + m.jitter) * np.eye(6)
        Ks = kernel_matrix(k, tq, t)
        yc = y - y.mean()
        mu_o = Ks @ solve(C, yc) + y.mean()
        var_o = k.theta_f**2 - np.sum(Ks * solve(C, Ks.T).T, axis=1)
        np.testing.assert_allclose(mu, mu_o, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sg, np.sqrt(np.clip(var_o, 0, None)),
                                   rtol=0, atol=1e-9)

    def test_far_field_sigma_approaches_theta_f(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 2, 15)
        y = np.sin(3 * t) + 0.05 * rng.standard_normal(15)
        m = train(t, y)
        far = t[-1] + 9.0 / m.theta_l
        _, sg = m.predict(far)
        assert abs(sg[0] - m.theta_f) <= 1e-6

    def test_variance_bounded_by_prior(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(0, 4, 10))
            y = rng.standard_normal(10) * rng.uniform(0.1, 5)
            m = train(t, y)
            _, sg = m.predict(np.linspace(-2, 8, 60))
            bound = np.sqrt(m.theta_f**2 + m.noise_std**2 + 1e-10)
            assert sg.max() <= bound + 1e-12

    def test_factor_reconstructs_covariance(self):
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0, 2, 9))
        m = train(t, np.sin(2 * t) + 0.1 * rng.standard_normal(9))
        C = kernel_matrix(m.kernel, m._ts, m._ts) + (
            m.noise_var + m.jitter
        ) * np.eye(9)
        np.testing.assert_allclose(
            m.factor @ m.factor.T, C, rtol=0, atol=1e-10 * np.abs(C).max()
        )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def fixture_model():
    cache = {}

    def get(name):
        if name not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                snaps = _disk_snapshots() if name == "disk" else FIXTURES[name]()
                cache[name] = build(snaps)
        return cache[name]

    return get


def random_gps(seed, M, P):
    """P GPs on M times each, with random data, scales and hyperparameters."""
    rng = np.random.default_rng(seed)
    gps = []
    for _ in range(P):
        t = np.sort(rng.uniform(0.0, rng.uniform(0.5, 10.0), M))
        y = rng.normal(rng.normal(0, 5), rng.uniform(0.01, 3.0), M)
        kernel = Kernel(np.exp(rng.uniform(-2, 1)), np.exp(rng.uniform(-1, 2)))
        gps.append(GprModel(
            kernel, float(np.exp(rng.uniform(-20, -2))), t, y,
            t_mean=float(t.mean()), t_scale=float(rng.uniform(0.5, 4.0)),
            y_scale=float(rng.uniform(0.1, 10.0)),
        ))
    return gps


class TestStack:
    """``GprStack`` against one-GP-at-a-time posteriors (``GprModel.predict``
    and ``oracle.predict``) and against an exact rational solve."""

    @staticmethod
    def assert_matches_oracle(stack, tq):
        """Stacked equals solo bit for bit; the mean equals the oracle's bit
        for bit and the variance to 1e-11 of the prior's; 0 <= sigma <= theta_f."""
        mu, sd = stack.predict(tq)
        for p, gp in enumerate(stack.models):
            solo_mu, solo_sd = gp.predict(tq)
            assert same_bits(mu[p], solo_mu) and same_bits(sd[p], solo_sd), p
            ref_mu, ref_sd = oracle.predict(gp, tq)
            assert same_bits(mu[p], ref_mu), p
            assert np.abs(sd[p] ** 2 - ref_sd**2).max() <= 1e-11 * gp.theta_f**2, p
            assert (sd[p] >= 0.0).all() and (sd[p] <= gp.theta_f).all(), p

    @pytest.mark.parametrize("name", [*sorted(FIXTURES), "disk"])
    def test_fixture_gps_bit_identical(self, fixture_model, name):
        m = fixture_model(name)
        stacks = [m.gp_stack, GprStack(m.mode_models)]
        if m.boundary_models is not None:
            stacks.append(GprStack(m.boundary_models))
        one = m.tM + 0.3 * (m.tM - m.t1)
        scan = m.tM + np.arange(1001) * m.scan_step
        for stack in stacks:
            for tq in (one, scan):
                self.assert_matches_oracle(stack, tq)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(2, 25),
           P=st.integers(1, 12), Q=st.integers(1, 40))
    def test_random_gps_bit_identical_and_bounded(self, seed, M, P, Q):
        gps = random_gps(seed, M, P)
        stack = GprStack(gps)
        lo = min(gp.train_t[0] for gp in gps)
        hi = max(gp.train_t[-1] for gp in gps)
        tq = np.random.default_rng(seed + 1).uniform(lo - 5.0, hi + 5.0, Q)
        self.assert_matches_oracle(stack, tq)

    def test_sigma_error_at_most_twice_lapack_against_exact_solve(self, fixture_model):
        """Every fixture GP at times inside the window (midpoints and every
        third training time, where sigma is smallest) and beyond it: the
        worst relative sigma error of the stack, against the exact rational
        solve with the same factor and kernel values, is at most twice that
        of LAPACK's triangular solve."""
        worst = {"stack": 0.0, "lapack": 0.0}
        for name in [*sorted(FIXTURES), "disk"]:
            m = fixture_model(name)
            for gp in [*m.mode_models, *(m.boundary_models or [])]:
                stack = GprStack([gp])
                t = gp.train_t
                tq = np.r_[0.5 * (t[1:] + t[:-1]), t[::3],
                           t[-1] + np.array([0.01, 0.05, 0.2, 0.5]) * (t[-1] - t[0])]
                ks = stack._kernel_block(tq)[0]
                tf2 = gp.kernel.theta_f**2
                v = dtrtrs(gp.factor.T, ks.T, lower=0, trans=1)[0]
                sd = {
                    "stack": stack.predict(tq)[1][0] / gp.y_scale,
                    "lapack": np.sqrt(np.clip(tf2 - np.sum(v * v, axis=0), 0.0, None)),
                }
                for q in range(tq.shape[0]):
                    var = oracle.exact_variance(gp.factor, ks[q], tf2)
                    assert var > 0, (name, tq[q])
                    exact = math.sqrt(var)
                    for key in worst:
                        worst[key] = max(worst[key], abs(sd[key][q] - exact) / exact)
        assert worst["stack"] <= 2.0 * worst["lapack"], worst

    def test_unequal_training_sizes_rejected(self):
        gps = random_gps(0, 5, 1) + random_gps(1, 6, 1)
        with pytest.raises(ValueError, match="equal training sizes"):
            GprStack(gps)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_query_rejected(self, bad):
        stack = GprStack(random_gps(2, 5, 3))
        with pytest.raises(ValueError, match=f"query time {bad} is not finite"):
            stack.predict([0.5, bad])

    @pytest.mark.parametrize("name", ["burgers-re500", "cavity-nr120"])
    def test_reloaded_forecast_bit_identical(self, fixture_model, name, tmp_path):
        m = fixture_model(name)
        save_rom_model(m, tmp_path / "model")
        m2 = load_rom_model(tmp_path / "model")
        for frac in (0.05, 0.2, 0.5):
            t = m.tM + frac * (m.tM - m.t1)
            a, b = forecast(m, t, force=True), forecast(m2, t, force=True)
            assert same_bits(a.field, b.field)
            assert same_bits(a.sigma_weighted, b.sigma_weighted)
            assert a.boundary_values == b.boundary_values


def _fixed_posterior(mu, sigma):
    """A GP whose posterior is exactly mean ``mu`` and deviation ``sigma`` at
    every time from 0 on, to exercise the horizon arithmetic: its training
    times lie so far back that the kernel vanishes there, and the prior
    (theta_f = 1, scaled by y_scale = sigma) holds."""
    t = np.array([-13.0, -12.0, -11.0, -10.0])
    return GprModel(Kernel(1.0, 1e3), 0.0, t, np.full(4, mu), y_scale=sigma)


class TestHorizonModes:
    def test_reference_ratio_permitted(self):
        # lambdas [4,1], sigmas [.1,.2], means [2,1]: ratio 0.6/9 ~ 0.0667
        models = [_fixed_posterior(2.0, 0.1), _fixed_posterior(1.0, 0.2)]
        lam = np.array([4.0, 1.0])
        h = gpr_horizon_modes(models, lam, tM=1.0, beta=0.1, scan_step=0.1,
                              max_steps=50)
        assert h.capped and h.t_star == pytest.approx(1.0 + 50 * 0.1)

    def test_reference_ratio_violated(self):
        models = [_fixed_posterior(2.0, 0.1), _fixed_posterior(1.0, 0.2)]
        lam = np.array([4.0, 1.0])
        with pytest.warns(UserWarning, match="first scan step"):
            h = gpr_horizon_modes(models, lam, tM=1.0, beta=0.05, scan_step=0.1)
        assert h.at_data_end and h.t_star == 1.0

    def test_weighted_sigma_reference(self):
        models = [_fixed_posterior(2.0, 0.1), _fixed_posterior(1.0, 0.2)]
        sigmas = GprStack(models).predict(0.0)[1][:, 0]
        assert energy_weighted(sigmas, np.array([4.0, 1.0])) == pytest.approx(0.12)
        # padding the spectrum changes only the normalization
        lam5 = np.array([4.0, 1.0, 0.0, 0.0, 0.0])
        assert energy_weighted(sigmas, lam5) == pytest.approx(0.12)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 1, 12)
        y = np.sin(4 * t) + 0.01 * rng.standard_normal(12)
        models = [train(t, y), train(t, np.cos(4 * t))]
        lam = np.array([3.0, 1.0])
        stars = [
            gpr_horizon_modes(models, lam, 1.0, beta, scan_step=0.05,
                              max_steps=200).t_star
            for beta in (0.02, 0.05, 0.1, 0.3)
        ]
        assert all(a <= b for a, b in zip(stars, stars[1:]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            gpr_horizon_modes([], np.array([1.0]), 0.0, 0.1, scan_step=0.0)


class TestHorizonBoundary:
    def test_constant_series_long_horizon(self):
        t = np.linspace(0, 1, 10)
        m = train(t, np.full(10, 3.0))
        h = gpr_horizon_boundary([m], tM=1.0, beta=0.1, scan_step=0.1,
                                 max_steps=500)
        assert h.t_star >= 1.0 + 10 * 0.1

    def test_min_rule(self):
        quiet = _fixed_posterior(1.0, 0.001)
        # mean 1, deviation ~1e-5 at its training times 1.0..1.3 and ~1 from
        # 1.4 on: the ramp violates after 3 steps
        ramp = GprModel(Kernel(1.0, 100.0), 0.0, [1.0, 1.1, 1.2, 1.3], np.ones(4))
        for gps in ([quiet, ramp], [ramp, quiet]):
            h = gpr_horizon_boundary(gps, tM=1.0, beta=0.1, scan_step=0.1,
                                     max_steps=50)
            # the flags are the binding parameter's: the ramp stops at step 3,
            # neither at the data end nor at the cap that the quiet one reaches
            assert h.t_star == pytest.approx(1.3)
            assert not h.capped and not h.at_data_end
            solo = [gpr_horizon_boundary([gp], tM=1.0, beta=0.1, scan_step=0.1,
                                         max_steps=50) for gp in gps]
            assert h.t_star == min(s.t_star for s in solo)
            assert sorted(s.capped for s in solo) == [False, True]

    def test_zero_mean_counts_as_violation(self):
        zero = _fixed_posterior(0.0, 0.001)
        with pytest.warns(UserWarning):
            h = gpr_horizon_boundary([zero], tM=0.0, beta=0.5, scan_step=0.1)
        assert h.t_star == 0.0 and h.at_data_end

    def test_bubble_radius_horizon_shrinks_with_beta(self):
        from mbrom.benchmarks import BubbleConfig

        cfg = BubbleConfig()
        t = np.linspace(51.0, 60.0, 10)
        m = train(t, cfg.radius(t))
        stars = [
            gpr_horizon_boundary([m], 60.0, beta, scan_step=0.9,
                                 max_steps=400).t_star
            for beta in (0.2, 0.05, 0.01, 0.002)
        ]
        assert all(np.isfinite(stars))
        assert all(a >= b for a, b in zip(stars, stars[1:]))
        assert stars[0] > stars[-1]


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(21)
        t = np.sort(rng.uniform(0, 2, 11))
        y = np.cos(2 * t) + 0.02 * rng.standard_normal(11)
        m = train(t, y)
        _save_gp(m, tmp_path / "gp.json")
        m2 = _load_gp(tmp_path / "gp.json")
        tq = np.linspace(-1, 4, 40)
        np.testing.assert_array_equal(m.predict(tq)[0], m2.predict(tq)[0])
        np.testing.assert_array_equal(m.predict(tq)[1], m2.predict(tq)[1])
