"""Closed-form benchmark generators.

Two fixtures with exact solutions: the 1D viscous Burgers equation on the
unit interval, and a radially symmetric strain field around a spherical
cavity whose radius follows a prescribed smooth law.  Both can be written
out in the dataset manifest format, so they double as file-format fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BoundaryTrack, DomainMask, SnapshotSet, SpatialGrid
from .data import _require_finite_fields

__all__ = [
    "BurgersConfig",
    "BubbleConfig",
    "burgers_exact",
    "burgers_snapshots",
    "bubble_strain",
    "bubble_snapshots",
]


@dataclass(frozen=True)
class BurgersConfig:
    """Burgers fixture: u_t + u u_x = u_xx / Re on (0,1), homogeneous ends."""

    reynolds: float = 100.0
    nx: int = 1001

    def __post_init__(self):
        _require_finite_fields(self)
        if self.reynolds <= 0:
            raise ValueError("Reynolds number must be positive")
        if self.nx < 2:
            raise ValueError("invalid discretization")

    @property
    def dx(self) -> float:
        """Grid spacing: nx nodes span [0, 1]."""
        return 1.0 / (self.nx - 1)

    @property
    def t0(self) -> float:
        return float(np.exp(self.reynolds / 8.0))

    def grid(self) -> SpatialGrid:
        return SpatialGrid.uniform_1d(0.0, 1.0, self.nx)


def burgers_exact(x, t, cfg: BurgersConfig) -> np.ndarray:
    """Closed-form solution u(x, t) of the Burgers fixture."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return (x / (t + 1.0)) / (
        1.0
        + np.sqrt((t + 1.0) / cfg.t0)
        * np.exp(cfg.reynolds * x**2 / (4.0 * t + 4.0))
    )


def burgers_snapshots(
    cfg: BurgersConfig, t1: float, tM: float, M: int
) -> SnapshotSet:
    """Uniformly sampled exact-solution snapshots; all-fluid masks."""
    if M < 2:
        raise ValueError("need at least 2 snapshots")
    grid = cfg.grid()
    times = np.linspace(t1, tM, M)
    x = grid.coords[:, 0]
    fields = np.array([burgers_exact(x, t, cfg) for t in times])
    return SnapshotSet(grid=grid, times=times, fields=fields, field_name="u")


@dataclass(frozen=True)
class BubbleConfig:
    """Cavity fixture: radius law R(t) = base - amplitude * sin(omega * t).

    The defaults put the snapshot window t in [51, 60] on the shrinking
    flank, so a forecast a few steps past the window exposes an annulus of
    nodes that never carried data.  The strain model has a removable
    singularity at the radius the law takes at the reference time ``t_bar``.
    """

    base_radius: float = 1.0
    amplitude: float = 0.12
    omega: float = 0.1
    t_bar: float = 5.0
    r_max: float = 5.0
    nr: int = 270
    r_min: float | None = None

    def __post_init__(self):
        _require_finite_fields(self)
        if self.base_radius - abs(self.amplitude) <= 0:
            raise ValueError("radius law must stay positive")
        if self.r_max <= self.base_radius + abs(self.amplitude):
            raise ValueError("outer radius must exceed the largest cavity radius")
        if self.nr < 2 or self.omega <= 0:
            raise ValueError("invalid discretization")

    def radius(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.base_radius - self.amplitude * np.sin(self.omega * t)

    def inner_edge(self, t1: float, tM: float) -> float:
        """Grid start: the smallest radius the law reaches up to one window
        length past the data (so later exposed nodes stay on the grid)."""
        if self.r_min is not None:
            return self.r_min
        span = tM - t1
        tt = np.linspace(t1, tM + 2.0 * span, 400)
        return float(self.radius(tt).min())


def bubble_strain(r, t, cfg: BubbleConfig) -> np.ndarray:
    """Analytic strain field r / (r^3 + R(t_bar)^3 - R(t)^3)."""
    r = np.asarray(r, dtype=float)
    c = cfg.radius(cfg.t_bar) ** 3 - cfg.radius(t) ** 3
    return r / (r**3 + c)


def bubble_snapshots(
    cfg: BubbleConfig, t1: float, tM: float, M: int
) -> tuple[SnapshotSet, BoundaryTrack]:
    """Strain snapshots on a radial grid, masked inside the cavity.

    Nodes with r < R(t_i) are occluded at snapshot i and carry the cavity
    marker value 0; the boundary track holds the radius series under the
    name ``R``.
    """
    if M < 2:
        raise ValueError("need at least 2 snapshots")
    times = np.linspace(t1, tM, M)
    rmin = cfg.inner_edge(t1, tM)
    grid = SpatialGrid.uniform_1d(rmin, cfg.r_max, cfg.nr)
    r = grid.coords[:, 0]
    radii = cfg.radius(times)
    fields = np.zeros((M, cfg.nr))
    masks = []
    for i, t in enumerate(times):
        fluid = r >= radii[i]
        c = cfg.radius(cfg.t_bar) ** 3 - radii[i] ** 3
        if np.any(r[fluid] ** 3 + c <= 0):
            raise ValueError(
                f"strain model denominator nonpositive at t={t:.6g}; "
                "configuration rejected"
            )
        fields[i, fluid] = bubble_strain(r[fluid], t, cfg)
        masks.append(DomainMask(fluid))
    track = BoundaryTrack(names=["R"], values=radii[:, None])
    snaps = SnapshotSet(
        grid=grid,
        times=times,
        fields=fields,
        masks=masks,
        boundary=track,
        field_name="S",
    )
    return snaps, track
