"""Reference form of the POD correlation matrix.

``decompose`` takes the eigenpairs of A_ij = (fluct_i, fluct_j) from the
singular value decomposition of the weight-scaled fluctuations without
forming A; this is A itself, which the tests compare it against.
"""

import numpy as np

from mbrom.data import SnapshotSet


def correlation_matrix(s: SnapshotSet) -> np.ndarray:
    """Snapshot correlation matrix A_ij = (fluct_i, fluct_j); symmetrized."""
    wf = s.fluct * s.grid.quad_weights
    A = wf @ s.fluct.T
    return 0.5 * (A + A.T)
