"""End-to-end ROM construction, forecasting and adaptive-loop tests."""

import dataclasses
import importlib.util
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mbrom.mls
import mbrom.rom
from local_fit_oracles import batched_correct_oracle
from mbrom.benchmarks import (
    BubbleConfig,
    BurgersConfig,
    bubble_snapshots,
    bubble_strain,
    burgers_exact,
    burgers_snapshots,
)
from mbrom.cli import _horizons as cli_horizons
from mbrom.data import (
    BoundaryTrack,
    DomainMask,
    SnapshotSet,
    SpatialGrid,
    load_snapshots,
    save_dataset,
    write_json,
)
from mbrom.gpr import GprStack
from mbrom.pod import reconstruct, truncate_to
from mbrom.rom import (
    HorizonExceededError,
    Thresholds,
    adaptive_loop,
    build,
    forecast,
    load_rom_model,
    relative_error,
    save_rom_model,
)


@pytest.fixture(scope="module")
def burgers_model():
    cfg = BurgersConfig(reynolds=100.0)
    s = burgers_snapshots(cfg, 0.3, 0.5, 20)
    return cfg, s, build(s)


@pytest.fixture(scope="module")
def bubble_model():
    cfg = BubbleConfig()
    s, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
    return cfg, s, build(s)


@pytest.fixture(scope="module")
def moving_models(bubble_model):
    """The cavity and a 30 x 30 copy of the benchmark's 2D disk."""
    disk2d = perfbench_disk2d()
    s = disk2d.disk_snapshots(disk2d.DiskConfig(n_side=30), 51.0, 60.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        disk = build(s)
    return {"disk": disk, "cavity": bubble_model[2]}


class TestBuild:
    def test_burgers_re100_mode_count(self, burgers_model):
        _, _, m = burgers_model
        assert m.basis.retained == 2

    def test_burgers_re500_mode_count(self):
        cfg = BurgersConfig(reynolds=500.0)
        s = burgers_snapshots(cfg, 0.3, 0.5, 20)
        assert build(s).basis.retained == 4

    def test_fixed_domain_has_no_boundary_models(self, burgers_model):
        _, _, m = burgers_model
        assert m.boundary_models is None
        assert list(m.horizons) == ["pod", "gpr_a"]
        assert m.mls_cfg is None

    def test_moving_boundary_requires_track(self):
        cfg = BubbleConfig()
        s, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
        stripped = type(s).__new__(type(s))
        stripped.__dict__.update(s.__dict__)
        stripped.boundary = None
        with pytest.raises(ValueError, match="boundary track"):
            build(stripped)

    def test_mask_off_the_radius_rule_fails_the_build(self, bubble_model):
        _, s, _ = bubble_model
        masks = list(s.masks)
        fluid = masks[2].fluid.copy()
        j = int(np.argmax(fluid))  # the innermost fluid node of snapshot 3
        fluid[j] = False
        masks[2] = DomainMask(fluid)
        bad = SnapshotSet(s.grid, s.times, s.fields, masks=masks, boundary=s.boundary)
        with pytest.raises(ValueError, match=r"mask of snapshot 3 \(t = 53\) is not the radius rule"):
            build(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            build(bad, boundary_geometry=lambda grid, gamma: np.ones(grid.n_nodes, bool))

    def test_moving_build_without_geometry_rule_refused(self, bubble_model):
        # two boundary parameters: no default rule finds the exposed nodes
        _, s, _ = bubble_model
        track = BoundaryTrack(["R", "R2"], np.column_stack([s.boundary.values] * 2))
        two = SnapshotSet(s.grid, s.times, s.fields, masks=s.masks, boundary=track)
        with pytest.raises(ValueError, match="2 boundary parameters and no boundary geometry rule"):
            build(two)

    @pytest.mark.parametrize("geometry", ["ellipse", "Radius", 1.0])
    def test_unknown_geometry_refused_before_the_svd(
        self, burgers_model, bubble_model, monkeypatch, geometry
    ):
        def svd(*args, **kwargs):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(np.linalg, "svd", svd)
        for _, s, _ in (burgers_model, bubble_model):
            with pytest.raises(ValueError, match="unknown boundary geometry"):
                build(s, boundary_geometry=geometry)

    def test_empty_always_fluid_set_refused(self):
        # each node is covered in one snapshot or the other
        g = SpatialGrid.uniform_1d(0.0, 1.0, 10)
        fluid = np.arange(10) < 5
        s = SnapshotSet(g, [0.0, 1.0], np.ones((2, 10)),
                        masks=[DomainMask(fluid), DomainMask(~fluid)],
                        boundary=BoundaryTrack(["R"], [[0.0], [1.0]]))
        with pytest.raises(ValueError, match="no node is fluid in every snapshot"):
            build(s, boundary_geometry=lambda grid, gamma: np.ones(grid.n_nodes, bool))

    def test_mode_model_count_matches_r(self, bubble_model):
        _, _, m = bubble_model
        assert len(m.mode_models) == m.basis.retained


class TestForecastFixedDomain:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("force", [False, True])
    def test_non_finite_query_rejected(self, burgers_model, bad, force):
        _, _, m = burgers_model
        with pytest.raises(ValueError, match=f"query time {bad} is not finite"):
            forecast(m, bad, force=force)

    def test_snapshot_time_within_tail_bound(self, burgers_model):
        _, s, m = burgers_model
        tail = np.sqrt(m.basis.tail_energy())
        for i in (5, 12, 19):
            fc = forecast(m, s.times[i])
            err = np.sqrt(
                np.sum((fc.field - s.fields[i]) ** 2 * s.grid.quad_weights)
            )
            assert err <= tail + 1e-6

    def test_error_split_reported_separately(self, burgers_model):
        # in-range error <= POD tail + GP interpolation residual, each
        # measured on its own
        _, s, m = burgers_model
        i = 9
        t = s.times[i]
        fc = forecast(m, t)
        mus = np.array([mm.predict(t)[0][0] for mm in m.mode_models])
        gpr_resid = np.sqrt(np.sum((mus - m.basis.coeffs[i]) ** 2))
        pod_tail = np.sqrt(m.basis.tail_energy())
        assert pod_tail >= 0 and gpr_resid >= 0
        err = np.sqrt(np.sum((fc.field - s.fields[i]) ** 2 * s.grid.quad_weights))
        assert err <= pod_tail * (1 + 1e-3) + gpr_resid + 1e-12

    def test_forecast_accuracy_beyond_data(self, burgers_model):
        cfg, s, m = burgers_model
        fc = forecast(m, 0.6, force=0.6 > m.t_star)
        truth = burgers_exact(s.grid.coords[:, 0], 0.6, cfg)
        assert relative_error(fc.field, truth, s.grid) <= 0.05

    def test_identical_to_component_pipeline(self, burgers_model):
        # fixed-domain forecast is exactly mean + sum(mu_k phi_k)
        _, s, m = burgers_model
        t = 0.55
        fc = forecast(m, t)
        mus = np.array([mm.predict(t)[0][0] for mm in m.mode_models])
        manual = reconstruct(m.basis, m.mean, mus)
        np.testing.assert_array_equal(fc.field, manual)
        assert fc.corrected_nodes is None
        assert fc.fluid_mask is None

    def test_horizon_is_component_minimum(self, burgers_model):
        _, _, m = burgers_model
        assert m.t_star == min(m.horizons["pod"].t_star, m.horizons["gpr_a"].t_star)

    def test_query_before_start_rejected(self, burgers_model):
        _, _, m = burgers_model
        with pytest.raises(ValueError, match="not beyond"):
            forecast(m, 0.1)

    def test_beyond_horizon_needs_force(self, burgers_model):
        _, _, m = burgers_model
        t_bad = m.t_star + 0.05
        with pytest.raises(HorizonExceededError, match="t\\*"):
            forecast(m, t_bad)
        fc = forecast(m, t_bad, force=True)
        assert fc.forced

    def test_error_components_nonnegative(self, burgers_model):
        _, _, m = burgers_model
        fc = forecast(m, 0.55)
        assert fc.eps_pod_tail >= 0
        assert fc.sigma_weighted >= 0
        assert fc.eps_mls == 0.0


class TestForecastMovingBoundary:
    def test_horizon_includes_boundary_component(self, bubble_model):
        _, _, m = bubble_model
        assert list(m.horizons) == ["pod", "gpr_a", "gpr_gamma"]
        assert m.t_star == min(h.t_star for h in m.horizons.values())

    def test_corrected_annulus(self, bubble_model):
        cfg, s, m = bubble_model
        t_query = 64.0
        fc = forecast(m, t_query, force=t_query > m.t_star)
        r = s.grid.coords[:, 0]
        r_hat = fc.boundary_values["R"]
        assert r_hat == pytest.approx(cfg.radius(t_query), abs=5e-3)
        swept_max = s.boundary.values[:, 0].max()
        expected = np.flatnonzero((r >= r_hat) & (r < swept_max))
        np.testing.assert_array_equal(np.sort(fc.corrected_nodes), expected)

    def test_correction_improves_exposed_nodes(self, bubble_model):
        cfg, s, m = bubble_model
        t_query = 64.0
        fc = forecast(m, t_query, force=t_query > m.t_star)
        r = s.grid.coords[:, 0]
        truth = bubble_strain(r, t_query, cfg)
        uncorrected = fc.field.copy()
        for node, _, before, _ in fc.correction_report.rows:
            uncorrected[node] = before
        exp = fc.corrected_nodes
        before = np.abs(uncorrected - truth)[exp].max()
        after = np.abs(fc.field - truth)[exp].max()
        assert after < before
        assert fc.eps_mls > 0

    def test_boundary_values_reported(self, bubble_model):
        _, _, m = bubble_model
        fc = forecast(m, 61.0, force=61.0 > m.t_star)
        assert set(fc.boundary_values) == {"R"}

    def test_fluid_mask_is_the_predicted_mask(self, bubble_model):
        _, _, m = bubble_model
        fc = forecast(m, 64.0, force=True)
        np.testing.assert_array_equal(fc.fluid_mask, m.node_radii >= fc.boundary_values["R"])

    def test_each_gp_predicted_once(self, bubble_model, monkeypatch):
        # one stacked call predicts every mode and boundary GP
        _, _, m = bubble_model
        seen = []
        predict = GprStack.predict

        def counted(self, t_query):
            seen.append(self)
            return predict(self, t_query)

        monkeypatch.setattr(GprStack, "predict", counted)
        forecast(m, 64.0, force=True)
        assert seen == [m.gp_stack]
        assert m.gp_stack.models == tuple(m.mode_models + m.boundary_models)


def perfbench_disk2d():
    """The benchmark's closed-form 2D pulsating disk module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "disk2d.py"
    spec = importlib.util.spec_from_file_location("perfbench_disk2d", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


class TestDiskEndToEnd:
    """Fill, POD, GPs and the MLS correction on a 2D moving boundary, against
    the disk's closed-form field (N = 1600)."""

    def test_forecast_and_correction(self):
        disk2d = perfbench_disk2d()
        cfg = disk2d.DiskConfig(n_side=40)
        s = disk2d.disk_snapshots(cfg, 51.0, 60.0, 10)
        r = disk2d.node_radius(s.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = build(s)
        for t in (61.0, 62.5, 64.0, 65.0):
            fc = forecast(m, t, force=True)
            fluid = fc.fluid_mask
            truth = np.where(fluid, disk2d.disk_field(r, t, cfg), 0.0)
            assert relative_error(np.where(fluid, fc.field, 0.0), truth, s.grid) <= 0.1
            # every newly exposed node is corrected, and nothing else
            nodes = fc.corrected_nodes
            assert nodes.size > 0 and not fc.correction_report.uncorrected
            np.testing.assert_array_equal(
                np.sort(nodes), np.flatnonzero(fluid & ~m.window_all_fluid)
            )
            uncorrected = fc.field.copy()
            for node, _, before, _ in fc.correction_report.rows:
                uncorrected[node] = before
            after = np.abs(fc.field - truth)[nodes].max()
            assert after < np.abs(uncorrected - truth)[nodes].max()


def closing_wall(grid, gamma):
    """The cavity, plus an outer wall that closes in as the cavity shrinks:
    the body grows past its window footprint, so the trusted set changes
    with the query time."""
    r = grid.coords[:, 0]
    return (r >= gamma[0]) & (r < 5.0 - 40.0 * (1.04 - gamma[0]))


class TestStencilCache:
    TIMES = (60.5, 64.0, 61.7, 63.2, 62.4)

    @staticmethod
    def assert_same(a, b):
        np.testing.assert_array_equal(a.field, b.field)
        assert a.correction_report.rows == b.correction_report.rows  # h bit for bit
        np.testing.assert_array_equal(a.corrected_nodes, b.corrected_nodes)
        assert a.correction_report.uncorrected == b.correction_report.uncorrected

    def test_query_order_and_fresh_model_agree(self, bubble_model):
        _, _, m = bubble_model
        ahead, back = dataclasses.replace(m), dataclasses.replace(m)
        forward = [forecast(ahead, t, force=True) for t in self.TIMES]
        backward = [forecast(back, t, force=True) for t in self.TIMES[::-1]][::-1]
        for t, a, b in zip(self.TIMES, forward, backward):
            self.assert_same(a, b)
            self.assert_same(a, forecast(dataclasses.replace(m), t, force=True))

    def test_repeated_query_fits_nothing(self, bubble_model, monkeypatch):
        _, _, m = bubble_model
        m = dataclasses.replace(m)
        calls = []
        kernel = mbrom.mls._shape_functions

        def counted(*args):
            calls.append(args[2].size)
            return kernel(*args)

        monkeypatch.setattr(mbrom.mls, "_shape_functions", counted)
        first = forecast(m, 64.0, force=True)
        assert sum(calls) == first.corrected_nodes.size > 0
        calls.clear()
        self.assert_same(forecast(m, 64.0, force=True), first)
        assert calls == []

    def test_history_change_matches_fresh_model(self):
        cfg = BubbleConfig(nr=120)
        s, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
        m = build(s, boundary_geometry=closing_wall)
        times = (61.0, 64.0, 61.0)
        got = [forecast(m, t, force=True) for t in times]
        trusted = [fc.fluid_mask & m.window_all_fluid for fc in got]
        assert not np.array_equal(trusted[0], trusted[1])
        for t, fc in zip(times, got):
            assert fc.corrected_nodes.size > 0
            self.assert_same(fc, forecast(dataclasses.replace(m), t, force=True))

    @pytest.mark.parametrize("nr", [270, 120])
    def test_fixtures_match_batched_fit_without_warning(self, nr, monkeypatch):
        # the acceptance gate of the shape-function form on the cavity at two
        # resolutions: |dv_j| <= 1e-12 Lambda_j max|f|, same h and node sets
        s, _ = bubble_snapshots(BubbleConfig(nr=nr), 51.0, 60.0, 10)
        m = build(s)
        calls = []
        correct = mbrom.rom.correct_field

        def captured(*args):
            calls.append((args, correct(*args)))
            return calls[-1][1]

        monkeypatch.setattr(mbrom.rom, "correct_field", captured)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in self.TIMES:
                forecast(m, t, force=True)
        for args, (out, report) in calls:
            ref, rows, uncorrected = batched_correct_oracle(*args[:5])
            assert report.uncorrected == uncorrected
            assert [r[:3] for r in report.rows] == [r[:3] for r in rows]
            nodes = report.nodes
            lam = np.array(report.lebesgue)
            assert np.all(lam >= 1.0) and lam.max() < mbrom.mls.LEBESGUE_WARN
            scale = np.abs(args[0]).max()
            assert np.all(np.abs(out[nodes] - ref[nodes]) <= 1e-12 * lam * scale)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["disk", "cavity"]),
           t=st.floats(60.0, 64.0, exclude_min=True))
    def test_rows_match_batched_fit_and_keep_reconstruct_bits(self, moving_models, name, t):
        # warm and cold: the models' caches persist across examples; the
        # corrected values within the gate of the batched fit, every other
        # node with the bits of pod.reconstruct
        m = moving_models[name]
        fc = forecast(m, t, force=True)
        before = reconstruct(m.basis, m.mean, m.posterior(t)[0])
        fluid = fc.fluid_mask
        ref, rows, uncorrected = batched_correct_oracle(
            before, fluid & ~m.window_all_fluid, fluid & m.window_all_fluid, m.grid, m.mls_cfg
        )
        report = fc.correction_report
        assert report.uncorrected == uncorrected
        assert [r[:3] for r in report.rows] == [r[:3] for r in rows]
        nodes, lam = report.nodes, np.array(report.lebesgue)
        np.testing.assert_array_equal(fc.corrected_nodes, nodes)
        assert np.all(np.abs(fc.field[nodes] - ref[nodes]) <= 1e-12 * lam * np.abs(before).max())
        assert np.delete(fc.field, nodes).tobytes() == np.delete(before, nodes).tobytes()

    def test_replaced_basis_or_mean_refits(self, bubble_model):
        # the cache tells the mean and the modes apart by identity, so a
        # model whose basis or mean is replaced after a forecast matches a
        # fresh model, not the rows of the old terms
        _, _, m = bubble_model
        m = dataclasses.replace(m)
        old = forecast(m, 64.0, force=True)
        first = truncate_to(m.basis, 1).modes  # the second mode zeroed, so R stays 2
        changes = (
            ("basis", dataclasses.replace(m.basis, modes=np.vstack([first, 0.0 * first]))),
            ("mean", 2.0 * m.mean),
        )
        for attr, value in changes:
            setattr(m, attr, value)
            got = forecast(m, 64.0, force=True)
            self.assert_same(got, forecast(dataclasses.replace(m), 64.0, force=True))
            nodes = got.corrected_nodes
            assert np.all(got.field[nodes] != old.field[nodes])
            old = got


class TestBasisOnAlwaysFluidNodes:
    """The mean, the basis and the POD tail see only B, the nodes fluid in
    every snapshot: no snapshot value outside B reaches the model."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_values_outside_b_leave_the_saved_model_unchanged(self, data, dim):
        side = data.draw(st.integers(8, 30) if dim == 1 else st.integers(4, 8))
        axis = np.linspace(-1.0, 1.0, side)
        coords = np.array(np.meshgrid(*[axis] * dim)).reshape(dim, -1).T
        grid = SpatialGrid(dim=dim, coords=coords, quad_weights=np.full(len(coords), 0.1))
        r = np.sqrt(np.sum(coords**2, axis=1))  # the radius rule's node radii
        M = data.draw(st.integers(3, 6))
        R = np.array(data.draw(st.lists(
            st.floats(0.0, 0.8 * r.max()), min_size=M, max_size=M
        )))
        fluid = r >= R[:, None]
        always = fluid.all(axis=0)
        assume((fluid & ~always).any())  # some node is fluid in some snapshots only
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fields = rng.standard_normal(fluid.shape)
        changed = fields + np.where(always, 0.0, rng.standard_normal(fluid.shape))
        files = []
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, f in enumerate((fields, changed)):
                s = SnapshotSet(grid, np.arange(M, dtype=float), f,
                                masks=[DomainMask(row) for row in fluid],
                                boundary=BoundaryTrack(["R"], R[:, None]))
                m = build(s)
                assert not m.mean[~always].any() and not m.basis.modes[:, ~always].any()
                save_rom_model(m, Path(tmp) / str(k))
                root = Path(tmp) / str(k)
                files.append({p.relative_to(root): p.read_bytes()
                              for p in sorted(root.rglob("*")) if p.is_file()})
        assert files[0] == files[1]


class TestRelativeError:
    def grid(self):
        return SpatialGrid.uniform_1d(0.0, 1.0, 11)

    def test_exact(self):
        g = self.grid()
        v = np.linspace(1, 2, 11)
        assert relative_error(v, v, g) == 0.0

    def test_zero_prediction(self):
        g = self.grid()
        v = np.linspace(1, 2, 11)
        assert relative_error(np.zeros(11), v, g) == pytest.approx(1.0)

    def test_scaling(self):
        g = self.grid()
        v = np.linspace(1, 2, 11)
        assert relative_error(1.1 * v, v, g) == pytest.approx(0.1, abs=1e-12)

    def test_zero_truth_rejected(self):
        g = self.grid()
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(np.ones(11), np.zeros(11), g)


class TestThresholds:
    # alpha_pod and beta_pod lie in (0, 1); beta_gpr_a and beta_gpr_gamma
    # are finite and > 0, so NaN and inf are refused
    @pytest.mark.parametrize("field, value, accepted", [
        ("alpha_pod", 0.01, True),
        ("beta_pod", 0.3, True),
        ("beta_gpr_a", 1e6, True),
        ("alpha_pod", 0.0, False),
        ("beta_pod", 1.0, False),
        ("beta_gpr_a", 0.0, False),
        ("beta_gpr_gamma", -1.0, False),
        ("alpha_pod", float("nan"), False),
        ("beta_pod", float("inf"), False),
        ("beta_gpr_a", float("nan"), False),
        ("beta_gpr_gamma", float("inf"), False),
    ])
    def test_validation(self, field, value, accepted):
        if accepted:
            assert getattr(Thresholds(**{field: value}), field) == value
        else:
            with pytest.raises(ValueError, match=f"^{field} must lie in"):
                Thresholds(**{field: value})

    def test_model_file_keeps_the_four_keys(self, tmp_path, burgers_model):
        _, _, m = burgers_model
        save_rom_model(m, tmp_path / "model")
        meta = json.loads((tmp_path / "model" / "model.json").read_text())
        keys = ("alpha_pod", "beta_pod", "beta_gpr_a", "beta_gpr_gamma")
        assert {k: meta[k] for k in keys} == dataclasses.asdict(Thresholds())
        assert load_rom_model(tmp_path / "model").thresholds == Thresholds()


class TestAdaptiveLoop:
    def solver(self, cfg, dt=0.01):
        def run(state, t0, n):
            return burgers_snapshots(cfg, t0, t0 + (n - 1) * dt, n)

        return run

    @pytest.mark.parametrize("name, t_target, t_start", [
        ("t_target", float("nan"), 0.3),
        ("t_target", float("inf"), 0.3),
        ("t_start", 1.2, float("inf")),
        ("t_start", 1.2, float("nan")),
    ])
    def test_non_finite_time_refused_before_the_solver_runs(self, name, t_target, t_start):
        calls = []

        def solver(state, t0, n):
            calls.append(t0)
            if len(calls) > 3:  # a loop that never ends fails here
                raise AssertionError("the solver was called 4 times")
            return self.solver(BurgersConfig(reynolds=100.0, nx=101))(state, t0, n)

        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            adaptive_loop(solver, 20, Thresholds(), t_target=t_target, t_start=t_start)
        assert calls == []

    def test_burgers_long_run(self):
        cfg = BurgersConfig(reynolds=100.0)
        forecasts, log = adaptive_loop(
            self.solver(cfg), 20, Thresholds(beta_gpr_a=0.01),
            t_target=1.2, t_start=0.3,
        )
        assert log, "expected at least one ROM segment"
        assert log[-1].t_handoff == pytest.approx(1.2)
        hand = [rec.t_handoff for rec in log]
        assert all(a < b for a, b in zip(hand, hand[1:]))
        stars = [rec.t_star for rec in log]
        assert all(a < b for a, b in zip(stars, stars[1:]))
        x = cfg.grid().coords[:, 0]
        for rec, fc in zip(log, forecasts):
            truth = burgers_exact(x, rec.t_handoff, cfg)
            assert relative_error(fc.field, truth, cfg.grid()) <= 0.1

    def test_target_inside_first_window(self):
        cfg = BurgersConfig(reynolds=100.0, nx=101)
        forecasts, log = adaptive_loop(
            self.solver(cfg), 20, Thresholds(),
            t_target=0.4, t_start=0.3,
        )
        assert forecasts == [] and log == []

    def test_no_progress_aborts(self):
        cfg = BurgersConfig(reynolds=100.0, nx=101)
        # impossible tolerance: criterion violated at the first scan step
        thresholds = Thresholds(beta_gpr_a=1e-12)
        with pytest.raises(RuntimeError, match="no forecast progress"):
            with pytest.warns(UserWarning):
                adaptive_loop(
                    self.solver(cfg), 20, thresholds,
                    t_target=1.0, t_start=0.3,
                )


class TestSerialization:
    def test_fixed_domain_round_trip(self, tmp_path, burgers_model):
        _, _, m = burgers_model
        save_rom_model(m, tmp_path / "model")
        m2 = load_rom_model(tmp_path / "model")
        fc1 = forecast(m, 0.58)
        fc2 = forecast(m2, 0.58)
        np.testing.assert_array_equal(fc1.field, fc2.field)
        assert m2.t_star == m.t_star

    def test_moving_boundary_round_trip(self, tmp_path, bubble_model):
        _, _, m = bubble_model
        save_rom_model(m, tmp_path / "model")
        m2 = load_rom_model(tmp_path / "model")
        fc1 = forecast(m, 64.0, force=True)
        fc2 = forecast(m2, 64.0, force=True)
        np.testing.assert_array_equal(fc1.field, fc2.field)
        np.testing.assert_array_equal(fc1.corrected_nodes, fc2.corrected_nodes)
        assert fc1.boundary_values == fc2.boundary_values

    def test_horizon_flags_and_weight_round_trip(self, tmp_path, bubble_model):
        _, _, m = bubble_model
        assert m.horizons["gpr_gamma"].capped  # the radius GP stays certain to the cap
        save_rom_model(m, tmp_path / "model")
        m2 = load_rom_model(tmp_path / "model")
        assert m2.horizons == m.horizons
        assert list(m2.horizons) == list(m.horizons)
        assert m2.mls_cfg == m.mls_cfg

    def test_schema_version_and_byte_identical_resave(self, tmp_path, bubble_model):
        _, _, m = bubble_model
        save_rom_model(m, tmp_path / "a")
        assert json.loads((tmp_path / "a" / "model.json").read_text())[
            "schema_version"
        ] == 3
        save_rom_model(load_rom_model(tmp_path / "a"), tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
        assert files == sorted(
            p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
        )
        for f in files:
            if (tmp_path / "a" / f).is_file():
                assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f

    @pytest.mark.parametrize("name", ["burgers", "burgers_r1", "cavity", "disk"])
    def test_save_load_save_writes_the_same_bytes(self, tmp_path, name):
        # a model and the dataset it was built from each reload to files
        # byte-identical to the ones they were read from
        if name.startswith("burgers"):
            re = 1.0 if name == "burgers_r1" else 100.0
            s = burgers_snapshots(BurgersConfig(reynolds=re, nx=201), 0.3, 0.5, 20)
        elif name == "cavity":
            s, _ = bubble_snapshots(BubbleConfig(), 51.0, 60.0, 10)
        else:
            disk2d = perfbench_disk2d()
            s = disk2d.disk_snapshots(disk2d.DiskConfig(n_side=30), 51.0, 60.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = build(s)
        save_dataset(s, tmp_path / "data" / "a")
        save_dataset(load_snapshots(tmp_path / "data" / "a"), tmp_path / "data" / "b")
        save_rom_model(m, tmp_path / "model" / "a")
        loaded = load_rom_model(tmp_path / "model" / "a")
        save_rom_model(loaded, tmp_path / "model" / "b")
        assert (loaded.basis.retained == 1) == (name == "burgers_r1")
        assert loaded.basis.retained == m.basis.retained
        assert loaded.basis.rrms_tail == m.basis.rrms_tail
        for attr in ("coeffs", "eigenvalues", "modes"):
            np.testing.assert_array_equal(
                getattr(loaded.basis, attr), getattr(m.basis, attr), strict=True
            )

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        for kind in ("data", "model"):
            a, b = tree(tmp_path / kind / "a"), tree(tmp_path / kind / "b")
            assert sorted(a) == sorted(b)
            assert [f for f in a if a[f] != b[f]] == []
        assert ("boundary.csv" in map(str, tree(tmp_path / "data" / "a"))) == (
            not name.startswith("burgers")
        )

    @pytest.mark.parametrize("name", ["cavity", "burgers"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_directory_loads_and_resaves_as_version_3(self, tmp_path, version, name):
        # `mbrom build` of `mbrom gen bubble --nr 60` and of `mbrom gen
        # burgers --nx 51`, saved in schema version 1 or 2 with the files and
        # keys version 3 derives (version 1 holds more copies)
        old_dir = Path(__file__).parent / "data" / f"model_v{version}" / name
        meta = json.loads((old_dir / "model.json").read_text())
        assert meta["schema_version"] == version
        assert {"t1", "tM", "scan_step", "sigma_at_t_star"} <= set(meta)
        assert (old_dir / "window_all_fluid.csv").is_file()
        assert (old_dir / "pod" / "coeffs.csv").is_file() == (version == 1)
        if name == "cavity":
            s, _ = bubble_snapshots(BubbleConfig(nr=60), 51.0, 60.0, 10)
            times = (55.5, 60.0, 64.0)
        else:
            s = burgers_snapshots(BurgersConfig(nx=51), 0.3, 0.5, 20)
            times = (0.45, 0.55, 0.6)
        old, new = load_rom_model(old_dir), build(s)
        assert write_json(None, cli_horizons(old)) == write_json(None, cli_horizons(new))
        assert (old.t1, old.tM, old.scan_step) == (new.t1, new.tM, new.scan_step)
        np.testing.assert_array_equal(old.window_all_fluid, new.window_all_fluid, strict=True)
        for t in times:
            a, b = forecast(old, t, force=True), forecast(new, t, force=True)
            assert a.field.tobytes() == b.field.tobytes()
            np.testing.assert_array_equal(a.corrected_nodes, b.corrected_nodes)
            assert (a.sigma_weighted, a.eps_pod_tail, a.eps_mls, a.boundary_values) == (
                b.sigma_weighted, b.eps_pod_tail, b.eps_mls, b.boundary_values
            )
        save_rom_model(old, tmp_path / "old")
        save_rom_model(new, tmp_path / "new")

        def tree(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()
            }

        assert tree(tmp_path / "old") == tree(tmp_path / "new")
        assert json.loads(tree(tmp_path / "new")["model.json"])["schema_version"] == 3
        R = new.basis.retained
        v3 = {"model.json", "grid.csv", "mean.csv", "pod/eigenvalues.csv", "pod/modes.csv"}
        v3 |= {f"gpr/mode_{k}.json" for k in range(R)}
        if name == "cavity":
            v3.add("boundary/param_0.json")
        assert sorted(tree(tmp_path / "new")) == sorted(v3)

    def test_callable_geometry_refused(self, tmp_path):
        s, _ = bubble_snapshots(BubbleConfig(nr=120), 51.0, 60.0, 10)
        m = build(s, boundary_geometry=closing_wall)
        with pytest.raises(ValueError, match="a callable boundary geometry cannot be saved"):
            save_rom_model(m, tmp_path / "model")
        assert not (tmp_path / "model").exists()

    def test_schema_version_missing_reads_as_1(self, tmp_path, burgers_model):
        _, _, m = burgers_model
        save_rom_model(m, tmp_path / "model")
        path = tmp_path / "model" / "model.json"
        meta = json.loads(path.read_text())
        del meta["schema_version"]
        path.write_text(json.dumps(meta))
        assert load_rom_model(tmp_path / "model").t_star == m.t_star

    def test_unknown_schema_version_rejected(self, tmp_path, burgers_model):
        _, _, m = burgers_model
        save_rom_model(m, tmp_path / "model")
        path = tmp_path / "model" / "model.json"
        meta = json.loads(path.read_text())
        meta["schema_version"] = 4
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError) as exc:
            load_rom_model(tmp_path / "model")
        assert str(path) in str(exc.value) and "schema_version 4" in str(exc.value)

    def test_unknown_weight_rejected(self, tmp_path, bubble_model):
        _, _, m = bubble_model
        save_rom_model(m, tmp_path / "model")
        path = tmp_path / "model" / "model.json"
        meta = json.loads(path.read_text())
        assert meta["mls"]["weight"] == "wendland_c2"
        meta["mls"]["weight"] = "quartic"
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError) as exc:
            load_rom_model(tmp_path / "model")
        assert str(path) in str(exc.value)
        assert "unknown MLS weight 'quartic'" in str(exc.value)
