"""Closed-form benchmark generator tests."""

import numpy as np
import pytest

from mbrom.benchmarks import (
    BubbleConfig,
    BurgersConfig,
    bubble_snapshots,
    bubble_strain,
    burgers_exact,
    burgers_snapshots,
)
from mbrom.pod import decompose, truncate


class TestBurgersExact:
    def test_zero_at_left_wall(self):
        for re in (1.0, 100.0, 500.0):
            cfg = BurgersConfig(reynolds=re)
            for t in (0.0, 0.4, 2.0):
                assert burgers_exact(0.0, t, cfg) == 0.0

    def test_initial_condition(self):
        cfg = BurgersConfig(reynolds=40.0)
        x = np.linspace(0, 1, 101)
        ic = x / (1.0 + np.sqrt(1.0 / cfg.t0) * np.exp(cfg.reynolds * x**2 / 4.0))
        np.testing.assert_allclose(burgers_exact(x, 0.0, cfg), ic, rtol=1e-14)

    def test_reference_value(self):
        # frozen from a 50-digit evaluation of the closed form
        cfg = BurgersConfig(reynolds=100.0)
        assert burgers_exact(0.5, 0.6, cfg) == pytest.approx(
            0.27867204779240574911, rel=1e-14
        )

    def test_satisfies_pde_residual(self):
        # u_t + u u_x - u_xx / Re = 0 up to the finite-difference error
        cfg = BurgersConfig(reynolds=100.0)
        rng = np.random.default_rng(17)
        dx, dt = 1e-4, 1e-5
        for _ in range(100):
            x = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.1, 1.0)
            u = lambda xx, tt: burgers_exact(xx, tt, cfg)
            u_t = (u(x, t + dt) - u(x, t - dt)) / (2 * dt)
            u_x = (u(x + dx, t) - u(x - dx, t)) / (2 * dx)
            u_xx = (u(x + dx, t) - 2 * u(x, t) + u(x - dx, t)) / dx**2
            resid = u_t + u(x, t) * u_x - u_xx / cfg.reynolds
            assert abs(resid) < 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BurgersConfig(reynolds=-1.0)
        with pytest.raises(ValueError):
            BurgersConfig(nx=1)  # no grid spacing

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_reynolds_refused(self, value):
        with pytest.raises(ValueError, match="^reynolds must be finite"):
            BurgersConfig(reynolds=value)


class TestBurgersSnapshots:
    def test_mean_is_time_average(self):
        cfg = BurgersConfig(reynolds=100.0, nx=101)
        assert cfg.dx == 1 / (101 - 1)
        s = burgers_snapshots(cfg, 0.3, 0.5, 5)
        x = s.grid.coords[:, 0]
        avg = np.mean([burgers_exact(x, t, cfg) for t in s.times], axis=0)
        np.testing.assert_allclose(s.mean, avg, rtol=0, atol=1e-12)

    def test_all_fluid(self):
        cfg = BurgersConfig(reynolds=1.0, nx=51)
        assert cfg.dx == 1 / (51 - 1)
        s = burgers_snapshots(cfg, 0.3, 0.5, 4)
        assert s.all_fluid()

    @pytest.mark.parametrize("re,r_expected", [(1.0, 1), (100.0, 2)])
    def test_paper_mode_counts(self, re, r_expected):
        cfg = BurgersConfig(reynolds=re)
        s = burgers_snapshots(cfg, 0.3, 0.5, 20)
        basis = truncate(decompose(s), 0.01)
        assert basis.retained == r_expected


class TestBubble:
    def test_reference_time_profile(self):
        # at t = t_bar the model collapses to 1 / r^2
        cfg = BubbleConfig()
        snaps, _ = bubble_snapshots(cfg, 3.0, 7.0, 5)
        i = int(np.argmin(np.abs(snaps.times - cfg.t_bar)))
        assert snaps.times[i] == pytest.approx(cfg.t_bar)
        r = snaps.grid.coords[:, 0]
        fluid = snaps.masks[i].fluid
        np.testing.assert_allclose(
            snaps.fields[i][fluid], 1.0 / r[fluid] ** 2, rtol=1e-12
        )

    def test_value_at_interface(self):
        cfg = BubbleConfig()
        t = 57.0
        r_t = cfg.radius(t)
        expected = r_t / cfg.radius(cfg.t_bar) ** 3
        assert bubble_strain(r_t, t, cfg) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_r(self):
        cfg = BubbleConfig()
        snaps, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
        for i in range(snaps.n_snapshots):
            fluid = snaps.masks[i].fluid
            vals = snaps.fields[i][fluid]
            assert np.all(np.diff(vals) < 0)

    def test_masks_follow_radius(self):
        cfg = BubbleConfig()
        snaps, track = bubble_snapshots(cfg, 51.0, 60.0, 10)
        r = snaps.grid.coords[:, 0]
        for i in range(10):
            np.testing.assert_array_equal(
                snaps.masks[i].fluid, r >= track.values[i, 0]
            )

    def test_track_name_and_values(self):
        cfg = BubbleConfig()
        snaps, track = bubble_snapshots(cfg, 51.0, 60.0, 10)
        assert track.names == ["R"]
        np.testing.assert_allclose(track.values[:, 0], cfg.radius(snaps.times))
        assert snaps.boundary is track

    def test_occluded_marker_is_zero(self):
        cfg = BubbleConfig()
        snaps, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
        for i in range(10):
            occ = ~snaps.masks[i].fluid
            assert np.all(snaps.fields[i][occ] == 0.0)

    def test_shrink_phase_geometry(self):
        # radius decreases through the window and keeps falling to the
        # forecast time, dropping below the windowed minimum
        cfg = BubbleConfig()
        t = np.linspace(51.0, 60.0, 10)
        radii = cfg.radius(t)
        assert np.all(np.diff(radii) < 0)
        assert cfg.radius(64.0) < radii.min()

    def test_inner_edge_covers_forecast(self):
        cfg = BubbleConfig()
        assert cfg.inner_edge(51.0, 60.0) <= cfg.radius(64.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BubbleConfig(amplitude=1.5)
        with pytest.raises(ValueError):
            BubbleConfig(r_max=1.0)

    @pytest.mark.parametrize("field, value", [
        ("omega", float("nan")),
        ("base_radius", float("nan")),
        ("amplitude", float("nan")),
        ("t_bar", float("inf")),
        ("r_max", float("inf")),
        ("r_min", float("nan")),
    ])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            BubbleConfig(**{field: value})
