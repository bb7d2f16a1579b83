"""Nonintrusive reduced-order modeling for systems with moving boundaries.

Snapshot data is compressed by proper orthogonal decomposition, the mode
coefficients and boundary parameters are regressed in time by Gaussian
processes, forecast horizons are bounded a priori, and newly exposed
near-boundary regions are repaired by moving least squares interpolation.
"""

from .benchmarks import (
    BubbleConfig,
    BurgersConfig,
    bubble_snapshots,
    bubble_strain,
    burgers_exact,
    burgers_snapshots,
)
from .data import (
    BoundaryTrack,
    DomainMask,
    SnapshotSet,
    SpatialGrid,
    fill_occluded,
    inner_product,
    load_snapshots,
    save_dataset,
)
from .galerkin import GalerkinOperators, assemble_operators, integrate
from .gpr import (
    GprModel,
    Kernel,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    kernel_matrix,
    nlml,
    train,
    train_many,
    weighted_sigma,
)
from .mls import MlsConfig, StencilCache, correct_field, mls_value, wendland_c2
from .pod import (
    PodBasis,
    decompose,
    pod_horizon,
    project,
    reconstruct,
    ric,
    truncate,
    truncate_to,
)
from .rom import (
    HorizonExceededError,
    RomForecast,
    RomModel,
    Thresholds,
    adaptive_loop,
    build,
    forecast,
    load_rom_model,
    relative_error,
    save_rom_model,
)

__version__ = "0.1.0"
