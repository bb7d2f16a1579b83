"""Proper orthogonal decomposition by the method of snapshots.

The eigenpairs of the M x M snapshot correlation matrix under the grid
inner product, computed stably from the weighted snapshots themselves,
yield orthonormal spatial modes with energy-ranked eigenvalues.
Truncation keeps the smallest mode count whose relative root-mean-square
tail falls below a threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import SnapshotSet
from .gpr import Horizon

__all__ = [
    "PodBasis",
    "decompose",
    "truncate",
    "truncate_to",
    "project",
    "reconstruct",
    "ric",
    "pod_horizon",
]

@dataclass(frozen=True)
class PodBasis:
    """Eigenvalues, orthonormal modes and temporal coefficients.

    ``modes`` is (R, N); ``coeffs`` is (M, R) with column k holding the
    trajectory of mode k; ``eigenvalues`` keeps the full length-M spectrum so
    tail sums survive truncation.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    retained: int
    coeffs: np.ndarray

    @property
    def rrms_tail(self) -> float:
        """Relative root-mean-square error of the discarded modes."""
        lam = self.eigenvalues
        return float(np.sqrt(lam[self.retained :].sum() / lam.sum()))

    def tail_energy(self, r: int | None = None) -> float:
        r = self.retained if r is None else r
        return float(np.sum(self.eigenvalues[r:]))


def decompose(s: SnapshotSet) -> PodBasis:
    """Spectral decomposition of the snapshot correlation with all M modes.

    The eigenpairs of the correlation matrix A_ij = (fluct_i, fluct_j) are
    obtained from the singular value decomposition of the weight-scaled
    fluctuation matrix (whose Gram matrix A is), without forming A; this
    keeps the modes orthonormal and the tail-energy identities exact even
    for eigenvalues near round-off.  ``coeffs @ coeffs.T`` equals A.  Only
    modes with an exactly zero singular value are excluded from the
    orthonormal set: their rows in ``modes`` and columns in ``coeffs`` are
    zero.
    """
    M = s.n_snapshots
    sqw = np.sqrt(s.grid.quad_weights)
    U, sing, Vt = np.linalg.svd(s.fluct * sqw, full_matrices=False)
    lam = np.zeros(M)
    lam[: sing.shape[0]] = sing**2
    if lam[0] <= 0.0:
        raise ValueError("degenerate input: snapshots carry no fluctuation energy")

    k = np.flatnonzero(sing > 0.0)
    modes = np.zeros((M, s.n_nodes))
    modes[k] = Vt[k] / sqw
    coeffs = np.zeros((M, M))
    coeffs[:, k] = U[:, k] * sing[k]
    return PodBasis(eigenvalues=lam, modes=modes, retained=M, coeffs=coeffs)


def truncate(b: PodBasis, alpha_pod: float) -> PodBasis:
    """Keep the smallest R with RRMS tail error below ``alpha_pod``."""
    if not (0.0 < alpha_pod < 1.0):
        raise ValueError(f"alpha_pod must lie in (0,1), got {alpha_pod}")
    lam = b.eigenvalues
    total = lam.sum()
    for R in range(1, lam.shape[0] + 1):
        if np.sqrt(lam[R:].sum() / total) < alpha_pod:
            return truncate_to(b, R)
    # unreachable: R = M always gives zero tail
    return b


def truncate_to(b: PodBasis, r: int) -> PodBasis:
    """Keep the first ``r`` modes."""
    if not (1 <= r <= b.retained):
        raise ValueError(f"cannot keep {r} of {b.retained} modes")
    return replace(b, modes=b.modes[:r], coeffs=b.coeffs[:, :r], retained=r)


def project(s: SnapshotSet, b: PodBasis) -> np.ndarray:
    """Coefficients a_k(t_i) = (fluct_i, mode_k) under the grid inner product."""
    if b.modes.shape[1] != s.n_nodes:
        raise ValueError(
            f"modes have {b.modes.shape[1]} nodes, snapshots have {s.n_nodes}"
        )
    return (s.fluct * s.grid.quad_weights) @ b.modes[: b.retained].T


def reconstruct(b: PodBasis, mean: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Field mean + sum_k a_k mode_k for one coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if coeffs.shape[0] != b.retained:
        raise ValueError(f"{coeffs.shape[0]} coefficients for {b.retained} modes")
    return np.asarray(mean, dtype=float) + coeffs @ b.modes[: b.retained]


def ric(b: PodBasis) -> np.ndarray:
    """Relative information content per mode, in percent."""
    total = b.eigenvalues.sum()
    if total <= 0.0:
        raise ValueError("degenerate spectrum: all eigenvalues zero")
    return 100.0 * b.eigenvalues / total


def pod_horizon(b: PodBasis, t1: float, tM: float, beta_pod: float) -> Horizon:
    """Forecast-time bound from the decay rate of the dominant eigenvalues.

    t* = tM + (tM - t1) * beta * (ln lambda_2 - ln lambda_{R+2}) / R, with
    eigenvalues indexed from 1.  When the spectrum is too short or the
    (R+2)-th eigenvalue has hit round-off, the bound is reported as
    unbounded (t* = inf) rather than extrapolating the spectrum.
    """
    lam = b.eigenvalues
    R = b.retained
    M = lam.shape[0]
    if R + 2 > M or lam[R + 1] <= 1e-14 * lam[0]:
        warnings.warn(
            "eigenvalue decay rate undefined (R+2 exceeds spectrum or "
            "lambda_{R+2} at round-off); POD poses no forecast bound",
            stacklevel=2,
        )
        return Horizon(np.inf)
    decay = (np.log(lam[1]) - np.log(lam[R + 1])) / R
    return Horizon(float(tM + (tM - t1) * beta_pod * decay))

