"""Batched eigenbasis GP training and the block horizon scans against their
reference definitions (``gpr_oracles``): the multi-start L-BFGS-B fit, the
profile-likelihood search that refined each output with scipy optimizers,
and the one-time-per-call scans."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import gpr_oracles as oracle
import mbrom
from mbrom.benchmarks import (
    BubbleConfig,
    BurgersConfig,
    bubble_snapshots,
    burgers_snapshots,
)
from mbrom.gpr import (
    JITTER0,
    LOG_BOUNDS,
    GprStack,
    Kernel,
    _scan,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    kernel_matrix,
    nlml,
    train,
    train_many,
    weighted_sigma,
)
from mbrom.rom import build, forecast, save_rom_model

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
GATE = 1e-6
EXACT = 1e-9


def fitted_nlml(m):
    """NLML of a fitted model at its own hyperparameters (standardized units)."""
    return nlml(m.kernel, m.noise_var, m._ts, m._ys)[0]


def rounding(m):
    """First-order bound on the rounding error of ``fitted_nlml(m)``.

    The unit kernel's eigenvalues are computed to eps * M * (largest), and
    each such error moves log c_i and z_i^2 / c_i by itself over c_i, the
    eigenvalues of C / theta_f^2.  Off the noise floor this is far below
    EXACT.  Where sigma sits on its lower bound, c_i ~ JITTER0 and the bound
    is 1e-4..1e-2: there the NLML of one search varies by ~1e-5 between
    length scales 1e-5 apart, so no two searches agree to EXACT.
    """
    M = m._ts.shape[0]
    d2 = (m._ts[:, None] - m._ts[None, :]) ** 2
    e, Q = np.linalg.eigh(np.exp(-0.5 * m.kernel.theta_l**2 * d2))
    tf2 = m.kernel.theta_f**2
    c = e + JITTER0 + m.noise_var / tf2
    z2 = (Q.T @ m._ys) ** 2 / tf2
    return 0.5 * np.finfo(float).eps * M * e.max() * float(np.sum(1 / c + z2 / c**2))


def tie_rule(gp):
    """Whether the fit took the tie rule (K = I on the training times): the
    output is white noise to its GP."""
    d = np.diff(gp._ts).min()
    return bool(np.exp(-0.5 * (gp.kernel.theta_l * d) ** 2) <= JITTER0)


def random_series(seed, m, kind):
    """A GP draw or a sine on random times, with observation noise of
    1e-2..0.3 of the signal (which keeps the NLML evaluation accurate far
    below the gates; see test_noise_floor)."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, rng.uniform(0.5, 10.0), m))
    rel = 10 ** rng.uniform(-2.0, -0.5)
    if kind == "draw":
        k = Kernel(np.exp(rng.uniform(-1, 1)), np.exp(rng.uniform(-1, 2)))
        K = kernel_matrix(k, t, t) + 1e-10 * np.eye(m)
        y = np.linalg.cholesky(K) @ rng.standard_normal(m)
        y += rel * k.theta_f * rng.standard_normal(m)
    else:
        y = np.sin(rng.uniform(0.2, 5.0) * t + rng.uniform(0, 6))
        y += rel * rng.standard_normal(m)
    return t, y


def _disk_snapshots():
    """The benchmark's 2D pulsating-disk fixture (N=10^4, M=10)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "disk2d.py"
    spec = importlib.util.spec_from_file_location("perfbench_disk2d", path)
    disk2d = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec)
    )
    spec.loader.exec_module(disk2d)
    return disk2d.disk_snapshots(disk2d.DiskConfig(), 51.0, 60.0, 10)


FIXTURES = {
    **{
        f"burgers-re{re:g}": lambda re=re: burgers_snapshots(
            BurgersConfig(reynolds=re), 0.3, 0.5, 20
        )
        for re in (1.0, 100.0, 300.0, 500.0)
    },
    **{
        f"cavity-nr{nr}": lambda nr=nr: bubble_snapshots(
            BubbleConfig(nr=nr), 51.0, 60.0, 10
        )[0]
        for nr in (270, 120)
    },
}


@pytest.fixture(scope="module")
def models():
    cache = {}

    def get(name):
        if name not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                snaps = _disk_snapshots() if name == "disk" else FIXTURES[name]()
                cache[name] = build(snaps)
        return cache[name]

    return get


class TestLikelihoodGate:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_gps_no_worse_than_multistart(self, models, name):
        m = models(name)
        gps = m.mode_models + (m.boundary_models or [])
        for k, gp in enumerate(gps):
            ref = oracle.train(gp.train_t, gp.train_y)
            assert fitted_nlml(gp) <= fitted_nlml(ref) + GATE, (name, k)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 25),
           kind=st.sampled_from(["draw", "sine"]))
    def test_random_series_no_worse_than_multistart(self, seed, m, kind):
        t, y = random_series(seed, m, kind)
        assert fitted_nlml(train(t, y)) <= fitted_nlml(oracle.train(t, y)) + GATE

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(8, 25))
    def test_noise_floor(self, seed, m):
        # Near-noiseless series fit with sigma near its lower bound, where C
        # has condition ~1e11 and the Cholesky and eigenbasis values of the
        # same NLML differ by up to ~1e-5 (8e-6 was the worst of 200 such
        # series); the two searches agree to that rounding level.
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, rng.uniform(0.5, 10.0), m)
        y = np.sin(rng.uniform(0.2, 5.0) * t) + 1e-5 * rng.standard_normal(m)
        assert fitted_nlml(train(t, y)) <= fitted_nlml(oracle.train(t, y)) + 1e-4


class TestScipySearchOracle:
    """The lockstep search against the per-output scipy search it replaced:
    every GP's NLML at most the oracle's + EXACT, widened only by the
    rounding bound of the two evaluations."""

    @pytest.mark.parametrize("name", sorted(FIXTURES) + ["disk"])
    def test_fixture_gps_no_worse_than_oracle(self, models, name):
        m = models(name)
        for gps in (m.mode_models, m.boundary_models or []):
            if not gps:
                continue
            Y = np.column_stack([gp.train_y for gp in gps])
            for k, (gp, ref) in enumerate(zip(gps, oracle.train_many(gps[0].train_t, Y))):
                slack = rounding(gp) + rounding(ref)
                assert fitted_nlml(gp) <= fitted_nlml(ref) + EXACT + slack, (name, k)
        # no fixture output is white noise to its GP
        assert not any(map(tie_rule, m.mode_models + (m.boundary_models or [])))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 25),
           kind=st.sampled_from(["draw", "sine"]))
    def test_random_series_no_worse_than_oracle(self, seed, m, kind):
        t, y = random_series(seed, m, kind)
        gp, ref = train(t, y), oracle.train_many(t, y[:, None])[0]
        slack = rounding(gp) + rounding(ref)
        assert fitted_nlml(gp) <= fitted_nlml(ref) + EXACT + slack

    def test_build_calls_no_scipy_optimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build called a scipy optimizer")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        monkeypatch.setattr(scipy.optimize, "minimize_scalar", refuse)
        for mod in (mbrom.gpr, mbrom.rom, mbrom.pod, mbrom.data, mbrom.mls):
            held = {str(getattr(v, "__module__", "")) for v in vars(mod).values()}
            assert not any(h.startswith("scipy.optimize") for h in held), mod
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = build(FIXTURES["cavity-nr270"]())
        assert m.mode_models and m.boundary_models

    def test_build_is_deterministic(self, tmp_path):
        snaps = FIXTURES["cavity-nr270"]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for side in ("a", "b"):
                save_rom_model(build(snaps), tmp_path / side)
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
        assert files
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f


class TestSearch:
    def test_train_is_the_one_column_case(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 2.0, 14)
        Y = np.column_stack([np.sin(3 * t), np.cos(t) + 0.1 * rng.standard_normal(14)])
        for gp, y in zip(train_many(t, Y), Y.T):
            one = train(t, y)
            assert gp.kernel == one.kernel and gp.noise_var == one.noise_var
            np.testing.assert_array_equal(gp.train_y, y)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 20),
        kinds=st.lists(st.sampled_from(["draw", "sine", "noise"]), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_any_two_way_split_trains_alike(self, seed, m, kinds, data):
        t, _ = random_series(seed, m, "sine")
        rng = np.random.default_rng(seed)
        Y = np.column_stack([
            rng.standard_normal(m) if kind == "noise" else random_series(seed + j, m, kind)[1]
            for j, kind in enumerate(kinds)
        ])
        first = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(kinds), max_size=len(kinds)
        ).filter(lambda f: 0 < sum(f) < len(f))))
        split = [None] * len(kinds)
        for part in (first, ~first):
            for j, gp in zip(np.flatnonzero(part), train_many(t, Y[:, part])):
                split[j] = gp
        for one, two in zip(train_many(t, Y), split):
            assert one.y_scale == two.y_scale
            if not (tie_rule(one) or tie_rule(two)):
                assert one.kernel == two.kernel and one.noise_var == two.noise_var
                continue
            # a tie-rule fit identifies the total variance alone; theta_f and
            # theta_l take their bounds, so the kernel bits agree, while the
            # noise variance keeps rounding the other columns can move: the
            # grid stage's BLAS rounding depends on the column count, and
            # the golden-section step count on every row of the call
            assert tie_rule(one) and tie_rule(two)
            assert one.kernel == two.kernel == Kernel(
                np.exp(LOG_BOUNDS[0][0]), np.exp(LOG_BOUNDS[1][1])
            )
            assert one.noise_var == pytest.approx(two.noise_var, rel=1e-12)

    @pytest.mark.parametrize("name", ["cavity-nr270", "disk"])
    def test_build_trains_like_separate_calls(self, models, name):
        m = models(name)
        t = m.mode_models[0].train_t
        for built, alone in (
            (m.boundary_models, train_many(t, m.boundary.values)),
            (m.mode_models, train_many(t, m.basis.coeffs[:, :m.basis.retained])),
        ):
            for a, b in zip(built, alone, strict=True):
                assert (a.kernel, a.noise_var, a.y_scale) == (b.kernel, b.noise_var, b.y_scale)

    def test_rejects_mismatched_outputs(self):
        with pytest.raises(ValueError, match="rows"):
            train_many(np.linspace(0, 1, 5), np.zeros((4, 2)))

    def test_hyperparameters_within_bounds(self, models):
        for gp in models("burgers-re500").mode_models:
            log_p = np.log([gp.kernel.theta_f, gp.kernel.theta_l])
            assert LOG_BOUNDS[0][0] <= log_p[0] <= LOG_BOUNDS[0][1]
            assert LOG_BOUNDS[1][0] <= log_p[1] <= LOG_BOUNDS[1][1]
            assert LOG_BOUNDS[2][0] <= 0.5 * np.log(gp.noise_var) <= LOG_BOUNDS[2][1]

    def test_burgers_re500_horizon_unchanged(self, models):
        m = models("burgers-re500")
        assert m.t_star == pytest.approx(0.6646895070617836, abs=1e-12)
        assert m.binding_component() == "pod"


class TestRidge:
    """White noise to the GP: K = I on the training times."""

    t = np.linspace(0.0, 1.0, 12)
    y = np.random.default_rng(1).standard_normal(12)

    def test_noise_takes_the_ridge(self):
        m = train(self.t, self.y)
        d = np.diff(m._ts).min()
        assert np.exp(-0.5 * (m.kernel.theta_l * d) ** 2) <= JITTER0
        assert m.kernel.theta_f == np.exp(LOG_BOUNDS[0][0])
        assert fitted_nlml(m) <= fitted_nlml(oracle.train(self.t, self.y)) + GATE

    def test_split_leaves_likelihood_unchanged(self):
        m = train(self.t, self.y)
        total = m.kernel.theta_f**2 * (1 + JITTER0) + m.noise_var
        signal = Kernel(1.0, m.kernel.theta_l)
        other = nlml(signal, total - (1 + JITTER0), m._ts, m._ys)[0]
        assert other == pytest.approx(fitted_nlml(m), abs=1e-9)

    def test_deterministic(self):
        a, b = train(self.t, self.y), train(self.t, self.y)
        assert a.kernel == b.kernel and a.noise_var == b.noise_var

    def test_correlated_series_keeps_its_signal(self):
        m = train(self.t, np.sin(4 * self.t) + 0.05 * self.y)
        assert m.kernel.theta_f > 0.5


class TestHorizonScanOracle:
    @pytest.mark.parametrize(
        "name", ["burgers-re500", "cavity-nr270", "cavity-nr120", "disk"]
    )
    @pytest.mark.parametrize("beta", [0.003, 0.03, 0.1, 0.3, 1.0])
    def test_block_scan_equals_scalar_scan(self, models, name, beta):
        m = models(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = gpr_horizon_modes(
                m.mode_models, m.basis.eigenvalues, m.tM, beta, m.scan_step
            )
            want = oracle.gpr_horizon_modes(
                m.mode_models, m.basis.eigenvalues, m.tM, beta, m.scan_step
            )
            assert got == want
            if m.boundary_models:
                got = gpr_horizon_boundary(m.boundary_models, m.tM, beta, m.scan_step)
                want = oracle.gpr_horizon_boundary(
                    m.boundary_models, m.tM, beta, m.scan_step
                )
                assert got == want

    @pytest.mark.parametrize("name", ["cavity-nr270", "disk"])
    def test_stacked_posteriors_equal_per_gp_predictions(self, models, name):
        # the scans, weighted_sigma and forecast predict through one GprStack;
        # each GP's column is the bits of its own GprModel.predict
        m = models(name)
        for gps in (m.mode_models, m.boundary_models):
            times, mu, sd = _scan(GprStack(gps), m.tM, m.scan_step, 1000)
            solo = [gp.predict(times) for gp in gps]
            assert mu.tobytes() == np.column_stack([p[0] for p in solo]).tobytes()
            assert sd.tobytes() == np.column_stack([p[1] for p in solo]).tobytes()
        lam = m.basis.eigenvalues
        R = m.basis.retained

        def per_gp(t):
            sigs = np.array([gp.predict(t)[1][0] for gp in m.mode_models])
            return float((lam[:R] * sigs).sum() / lam.sum())

        t_a = m.horizon_gpr_a.t_star
        assert m.horizon_gpr_a.sigma_weighted == per_gp(t_a)
        for t in (m.tM, t_a, m.tM + 2.5 * m.scan_step, m.t_star + 1.0):
            assert weighted_sigma(m.mode_models, lam, t) == per_gp(t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert forecast(m, t, force=True).sigma_weighted == per_gp(t)

    def test_built_horizons_equal_scalar_scans(self, models):
        for name in ("burgers-re500", "cavity-nr270", "disk"):
            m = models(name)
            assert m.horizon_gpr_a == oracle.gpr_horizon_modes(
                m.mode_models, m.basis.eigenvalues, m.tM,
                m.thresholds.beta_gpr_a, m.scan_step,
            )
            if m.boundary_models:
                assert m.horizon_gpr_gamma == oracle.gpr_horizon_boundary(
                    m.boundary_models, m.tM, m.thresholds.beta_gpr_gamma,
                    m.scan_step,
                )
