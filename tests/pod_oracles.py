"""Reference forms of two POD identities.

``decompose`` takes the eigenpairs of A_ij = (fluct_i, fluct_j) from the
singular value decomposition of the weight-scaled fluctuations without
forming A; ``correlation_matrix`` is A itself, which the tests compare it
against.  ``reconstruction_error`` reconstructs every snapshot directly, so
the tail identity can be tested against the spectrum.
"""

import numpy as np

from mbrom.data import SnapshotSet, inner_product
from mbrom.pod import PodBasis


def correlation_matrix(s: SnapshotSet) -> np.ndarray:
    """Snapshot correlation matrix A_ij = (fluct_i, fluct_j); symmetrized."""
    wf = s.fluct * s.grid.quad_weights
    A = wf @ s.fluct.T
    return 0.5 * (A + A.T)


def reconstruction_error(s: SnapshotSet, b: PodBasis, r: int) -> float:
    """Aggregate L2 truncation error over all snapshots at mode count ``r``.

    Equals sqrt(sum of the tail eigenvalues) exactly.
    """
    total = 0.0
    for i in range(s.n_snapshots):
        resid = s.fluct[i] - b.coeffs[i, :r] @ b.modes[:r]
        total += inner_product(resid, resid, s.grid)
    return float(np.sqrt(total))
