"""Moving least squares fitting and field-correction tests."""

import re

import numpy as np
import pytest

from local_fit_oracles import lone_fit
from mbrom.cli import _write_correction_report
from mbrom.data import SpatialGrid
from mbrom.mls import (
    CorrectionReport,
    MlsConfig,
    StencilCache,
    correct_field,
    wendland_c2,
)


def line_grid(n, a=0.0, b=1.0):
    return SpatialGrid.uniform_1d(a, b, n)


class TestWeight:
    def test_shape(self):
        q = np.array([0.0, 0.5, 0.999, 1.0, 2.0])
        w = wendland_c2(q)
        assert w[0] == 1.0
        assert np.all(w[:3] > 0) and np.all(w[3:] == 0.0)
        assert np.all(np.diff(wendland_c2(np.linspace(0, 1, 50))) <= 0)


class TestMlsFit:
    """The fit at one target from given neighbours, through ``correct_field``
    on a grid of the target and its neighbours (``lone_fit``)."""

    def test_linear_reproduction(self):
        xs = np.linspace(-0.4, 0.4, 9)
        val = lone_fit(0.05, xs, 2.0 * xs + 1.0, order=1, h=1.0)
        assert val == pytest.approx(2.0 * 0.05 + 1.0, abs=1e-12)

    def test_cubic_reproduction_1d(self):
        xs = np.linspace(-0.5, 0.5, 12)
        f = lambda x: 0.3 * x**3 - 2 * x**2 + x - 4
        val = lone_fit(0.08, xs, f(xs), order=3, h=1.2)
        assert val == pytest.approx(f(0.08), abs=1e-9)

    def test_quadratic_reproduction_2d(self):
        gx, gy = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 7))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        f = lambda p: 1.0 + p[:, 0] - 2 * p[:, 1] + 0.5 * p[:, 0] * p[:, 1]
        val = lone_fit([0.1, -0.2], pts, f(pts), order=2, h=3.0)
        assert val == pytest.approx(
            f(np.array([[0.1, -0.2]]))[0], abs=1e-9
        )

    def test_convergence_order(self):
        # fit error at the target shrinks ~ h^(s+1); asymmetric stencil so no
        # symmetry superconvergence masks the rate
        for s in (1, 2, 3):
            errs = []
            hs = [0.4, 0.2, 0.1, 0.05]
            for h in hs:
                xs = np.linspace(-0.3 * h, 0.95 * h, 24)
                val = lone_fit(0.0, xs, np.exp(xs), order=s, h=h)
                errs.append(abs(val - 1.0) + 1e-18)
            rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            # average observed rate across the three halvings
            assert abs(rates.mean() - (s + 1)) <= 0.5

    def test_rank_deficiency_names_direction(self):
        # collinear 2D neighbors cannot resolve the y direction
        pts = np.column_stack([np.linspace(-0.5, 0.5, 8), np.zeros(8)])
        with pytest.raises(ValueError, match="rank-deficient.*y"):
            lone_fit([0.0, 0.0], pts, np.ones(8), order=1, h=1.0)

    def test_moment_matrix_spd_when_resolved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.uniform(-0.8, 0.8, (25, 2))
            vals = rng.standard_normal(25)
            assert np.isfinite(lone_fit(np.zeros(2), pts, vals, order=2, h=2.0))


class TestCorrectField:
    def test_empty_exposed(self):
        g = line_grid(30)
        field = np.sin(g.coords[:, 0])
        out, report = correct_field(
            field, np.array([], dtype=int), np.ones(30, bool), g, MlsConfig()
        )
        np.testing.assert_array_equal(out, field)
        assert not report.rows and not report.uncorrected

    def test_cubic_field_exact(self):
        g = line_grid(60)
        x = g.coords[:, 0]
        f = 2.0 - x + 0.5 * x**2 + 0.25 * x**3
        exposed = np.arange(5)
        history = np.ones(60, bool)
        history[:8] = False  # a margin of non-trusted, non-corrected nodes
        corrupted = f.copy()
        corrupted[exposed] = -99.0
        out, report = correct_field(corrupted, exposed, history, g,
                                    MlsConfig(order=3))
        np.testing.assert_allclose(out[exposed], f[exposed], atol=1e-9)
        assert len(report.rows) == 5

    def test_polynomial_exactness_2d(self):
        xs = np.linspace(0, 1, 12)
        gx, gy = np.meshgrid(xs, xs)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        g = SpatialGrid(dim=2, coords=coords,
                        quad_weights=np.full(coords.shape[0], (1 / 11) ** 2))
        p = coords[:, 0] ** 2 - coords[:, 0] * coords[:, 1] + 3 * coords[:, 1]
        exposed = np.flatnonzero(
            (coords[:, 0] < 0.2) & (coords[:, 1] < 0.2)
        )
        history = np.ones(coords.shape[0], bool)
        history[(coords[:, 0] < 0.3) & (coords[:, 1] < 0.3)] = False
        corrupted = p.copy()
        corrupted[exposed] = 55.0
        out, report = correct_field(corrupted, exposed, history, g,
                                    MlsConfig(order=2))
        assert not report.uncorrected
        np.testing.assert_allclose(out[exposed], p[exposed], atol=1e-9)

    def test_locality(self):
        g = line_grid(80)
        x = g.coords[:, 0]
        field = np.cos(2 * x)
        exposed = np.arange(4)
        history = np.ones(80, bool)
        history[:4] = False
        out1, rep = correct_field(field, exposed, history, g, MlsConfig(order=2))
        h_max = max(r[1] for r in rep.rows)
        far = x > x[3] + h_max * 1.01
        field2 = field.copy()
        field2[far] += 100.0
        out2, _ = correct_field(field2, exposed, history, g, MlsConfig(order=2))
        np.testing.assert_array_equal(out1[exposed], out2[exposed])

    def test_growth_cap_leaves_node_uncorrected(self):
        g = line_grid(200, 0.0, 1.0)
        history = np.zeros(200, bool)
        history[-8:] = True  # trusted nodes far from the exposed end
        exposed = np.array([0])
        cfg = MlsConfig(order=3, max_growths=2)
        out, report = correct_field(np.ones(200), exposed, history, g, cfg)
        assert report.uncorrected == [0]
        assert out[0] == 1.0

    def test_overlap_rejected(self):
        g = line_grid(20)
        with pytest.raises(ValueError, match="overlaps"):
            correct_field(np.ones(20), np.array([3]), np.ones(20, bool), g,
                          MlsConfig())

    @pytest.mark.parametrize("exposed, message", [
        (np.arange(220) < 3, "exposed mask has 220 entries for 270 nodes"),
        (np.array([5, -1]), "exposed node -1 is not a node index: the grid has nodes 0 to 269"),
        (np.array([270]), "exposed node 270 is not a node index: the grid has nodes 0 to 269"),
        (np.array([2.7, 3.2]), "exposed node 2.7 is not an integer"),
        (np.array([4.0, np.nan]), "exposed node nan is not an integer"),
        (np.array([12, 3, 40, 3]), "exposed node 3 is listed 2 times"),
        (np.array(["3"]), "exposed nodes must be integers, not <U1"),
    ], ids=["short-mask", "negative-index", "index-past-the-grid", "fraction", "nan",
            "repeat", "string"])
    def test_bad_exposed_set_refused_before_the_cache(self, exposed, message):
        g = line_grid(270)
        history = np.ones(270, bool)
        history[:10] = False
        cache = StencilCache()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            correct_field(np.ones(270), exposed, history, g, MlsConfig(), cache)
        assert cache._key is None

    @pytest.mark.parametrize("exposed", [[], np.array([12.0, 3.0]), np.array([12, 3], np.uint8)],
                             ids=["empty", "whole-floats", "unsigned"])
    def test_integer_valued_exposed_sets_accepted(self, exposed):
        g = line_grid(270)
        history = np.ones(270, bool)
        history[:20] = False
        field = np.cos(g.coords[:, 0])
        out, report = correct_field(field, exposed, history, g, MlsConfig())
        assert sorted(report.nodes.tolist()) == sorted(int(i) for i in exposed)
        if len(exposed) == 0:
            assert np.array_equal(out, field)

    def test_report_csv(self, tmp_path):
        report = CorrectionReport(rows=[(3, 0.1, 1.0, 2.0)], uncorrected=[7],
                                  lebesgue=[2.5])
        _write_correction_report(tmp_path / "r.csv", report)
        text = (tmp_path / "r.csv").read_text()
        assert text.splitlines()[0] == "node,h,before,after,lebesgue"
        assert "3," in text
        assert text.splitlines()[1].endswith(",2.5")


class TestLebesgueFlag:
    """Eight trusted nodes at the right end of a 200-node line: a node far to
    their left extrapolates a cubic over all of them."""

    def case(self, exposed):
        g = line_grid(200)
        history = np.zeros(200, bool)
        history[-8:] = True
        cfg = MlsConfig(order=3, min_neighbor_factor=2.0)
        return correct_field(np.cos(3 * g.coords[:, 0]), np.array(exposed), history, g, cfg)

    def test_ill_conditioned_node_warns(self):
        with pytest.warns(UserWarning, match=r"1 of 2 corrected nodes .* node 150"):
            out, report = self.case([150, 180])
        lam = dict(zip(report.nodes, report.lebesgue))
        assert lam[150] == pytest.approx(1.49e4, rel=1e-2)
        assert lam[180] == pytest.approx(458, rel=1e-2)
        assert out[150] == report.rows[0][3]  # the warning changes no value

    def test_moderate_node_does_not_warn(self, recwarn):
        _, report = self.case([180])
        assert len(report.lebesgue) == 1
        assert not [w for w in recwarn if "Lebesgue" in str(w.message)]


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            MlsConfig(order=-1)
        with pytest.raises(ValueError):
            MlsConfig(kernel_len=0.0)
        with pytest.raises(ValueError):
            MlsConfig(min_neighbor_factor=0.5)
        with pytest.raises(ValueError, match="max_growths"):
            MlsConfig(max_growths=-3)

    @pytest.mark.parametrize("field, value", [
        ("kernel_len", float("nan")),
        ("kernel_len", float("inf")),
        ("min_neighbor_factor", float("inf")),
        ("min_neighbor_factor", float("nan")),
        ("order", float("nan")),
    ])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MlsConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("order", 2.5, "order must be an integer, not 2.5"),
        ("max_growths", 1.5, "max_growths must be an integer, not 1.5"),
        ("order", True, "order must be a number, not True"),
        ("max_growths", False, "max_growths must be a number, not False"),
        ("min_neighbor_factor", True, "min_neighbor_factor must be a number, not True"),
        ("kernel_len", "x", "kernel_len must be a number, not 'x'"),
    ], ids=["fraction-order", "fraction-growths", "bool-order", "bool-growths",
            "bool-factor", "string-kernel-len"])
    def test_not_a_number_or_not_an_integer_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MlsConfig(**{field: value})

    def test_required_neighbors(self):
        cfg = MlsConfig(order=3, min_neighbor_factor=6.0)
        assert cfg.n_terms(1) == 4
        assert cfg.required_neighbors(1) == 24
        assert cfg.n_terms(2) == 10
        # numpy integers are integers
        cfg = MlsConfig(order=np.int64(2), max_growths=np.uint8(3))
        assert cfg.required_neighbors(2) == 36
