"""Projected-operator assembly and time-integration tests."""

import numpy as np
import pytest

from mbrom.benchmarks import BurgersConfig, burgers_exact, burgers_snapshots
from mbrom.data import SpatialGrid, inner_product
from mbrom.galerkin import GalerkinOperators, assemble_operators, integrate
from mbrom.pod import PodBasis, decompose, reconstruct, truncate
from mbrom.rom import relative_error


def single_mode_basis(phi, n_snapshots=4):
    phi = np.atleast_2d(phi)
    m = n_snapshots
    return PodBasis(
        eigenvalues=np.ones(1),
        modes=phi,
        retained=1,
        coeffs=np.zeros((m, 1)),
        rrms_tail=0.0,
    )


class TestAssemble:
    def test_all_zero(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 11)
        basis = single_mode_basis(np.zeros((1, 11)))
        ops = assemble_operators(basis, np.zeros(11), g, reynolds=10.0)
        assert np.all(ops.constant == 0)
        assert np.all(ops.linear == 0)
        assert np.all(ops.quadratic == 0)

    def test_diffusion_eigenvalue(self):
        # phi = normalized sin(pi x): (phi'' / Re, phi) = -pi^2 / Re
        g = SpatialGrid.uniform_1d(0.0, 1.0, 1001)
        x = g.coords[:, 0]
        phi = np.sin(np.pi * x)
        phi = phi / np.sqrt(inner_product(phi, phi, g))
        ops = assemble_operators(single_mode_basis(phi), np.zeros(1001), g, 1.0)
        assert ops.linear[0, 0] == pytest.approx(-np.pi**2, abs=1e-3)

    def test_quadratic_term_against_quadrature(self):
        cfg = BurgersConfig(reynolds=100.0, nx=501)
        s = burgers_snapshots(cfg, 0.3, 0.5, 8)
        basis = truncate(decompose(s), 0.01)
        ops = assemble_operators(basis, s.mean, s.grid, 100.0)
        dx = 1.0 / 500
        for k in range(basis.retained):
            phi_k = basis.modes[k]
            dphi = np.gradient(phi_k, dx, edge_order=2)
            direct = inner_product(-phi_k * dphi, phi_k, s.grid)
            assert ops.quadratic[k, k, k] == pytest.approx(direct, abs=1e-8)

    def test_too_few_nodes(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="5 grid nodes"):
            assemble_operators(single_mode_basis(np.zeros((1, 4))), np.zeros(4), g, 1.0)

    def test_nonuniform_grid_rejected(self):
        x = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        g = SpatialGrid(dim=1, coords=x[:, None], quad_weights=np.full(5, 0.2))
        with pytest.raises(ValueError, match="uniform"):
            assemble_operators(single_mode_basis(np.zeros((1, 5))), np.zeros(5), g, 1.0)


class TestIntegrate:
    def test_zero_ops_constant(self):
        ops = GalerkinOperators(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2, 2)), 1.0)
        _, traj = integrate(ops, [1.0, -2.0], (0.0, 5.0), 0.01,
                            np.array([1.0, 3.0, 5.0]))
        np.testing.assert_array_equal(traj, [[1.0, -2.0]] * 3)

    def test_linear_decay(self):
        ops = GalerkinOperators(
            np.zeros(2), -np.eye(2), np.zeros((2, 2, 2)), 1.0
        )
        a0 = np.array([2.0, -1.0])
        _, traj = integrate(ops, a0, (0.0, 1.0), 1e-3, np.array([1.0]))
        np.testing.assert_allclose(traj[0], a0 * np.exp(-1.0), rtol=1e-8)

    def test_zero_fluctuation_stays_zero(self):
        g = SpatialGrid.uniform_1d(0.0, 1.0, 11)
        basis = single_mode_basis(np.zeros((1, 11)))
        ops = assemble_operators(basis, np.zeros(11), g, 10.0)
        _, traj = integrate(ops, [0.0], (0.0, 2.0), 0.01, np.array([2.0]))
        np.testing.assert_array_equal(traj, [[0.0]])

    def test_blow_up_reports_time(self):
        # da/dt = a^2 from a0=1 blows up at t=1
        ops = GalerkinOperators(np.zeros(1), np.zeros((1, 1)), np.ones((1, 1, 1)), 1.0)
        with pytest.raises(RuntimeError, match="blew up at t="):
            integrate(ops, [1.0], (0.0, 2.0), 1e-3, np.array([2.0]))

    def test_bad_dt(self):
        ops = GalerkinOperators(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1)), 1.0)
        with pytest.raises(ValueError):
            integrate(ops, [1.0], (0.0, 1.0), 0.0)

    def test_dt_refinement_converged(self):
        cfg = BurgersConfig(reynolds=100.0)
        s = burgers_snapshots(cfg, 0.3, 0.5, 20)
        basis = truncate(decompose(s), 0.01)
        ops = assemble_operators(basis, s.mean, s.grid, 100.0)
        a0 = basis.coeffs[0]
        dt = (s.times[1] - s.times[0]) / 100.0
        _, t1 = integrate(ops, a0, (0.3, 0.6), dt, np.array([0.6]))
        _, t2 = integrate(ops, a0, (0.3, 0.6), dt / 2.0, np.array([0.6]))
        assert np.abs(t1 - t2).max() <= 1e-6 * np.abs(t2).max()


class TestBurgersForecast:
    @pytest.mark.parametrize("re,tol", [(1.0, 0.05), (100.0, 0.05)])
    def test_galerkin_matches_exact(self, re, tol):
        cfg = BurgersConfig(reynolds=re)
        s = burgers_snapshots(cfg, 0.3, 0.5, 20)
        basis = truncate(decompose(s), 0.01)
        ops = assemble_operators(basis, s.mean, s.grid, re)
        dt = (s.times[1] - s.times[0]) / 100.0
        _, traj = integrate(ops, basis.coeffs[0], (0.3, 0.6), dt, np.array([0.6]))
        field = reconstruct(basis, s.mean, traj[-1])
        truth = burgers_exact(s.grid.coords[:, 0], 0.6, cfg)
        assert relative_error(field, truth, s.grid) <= tol


class TestTrajectoryExport:
    def test_round_trip(self, tmp_path):
        ops = GalerkinOperators(
            np.zeros(2), -np.eye(2), np.zeros((2, 2, 2)), 1.0
        )
        t_eval = np.linspace(0.2, 1.0, 5)
        times, traj = integrate(ops, [1.0, 2.0], (0.0, 1.0), 1e-3, t_eval)
        from mbrom.galerkin import write_trajectory_csv

        write_trajectory_csv(tmp_path / "traj.csv", times, traj)
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,a_1,a_2"
        data = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], t_eval)
        np.testing.assert_array_equal(data[:, 1:], traj)
