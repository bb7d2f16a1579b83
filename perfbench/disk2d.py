"""Closed-form 2D pulsating disk: the planar analogue of the cavity fixture.

A disk centred at the origin of the square [-half_width, half_width]^2 has
radius R(t) = base - amplitude * sin(omega * t).  Outside the disk the field
is r / (r^2 + R(t_bar)^2 - R(t)^2); nodes inside carry the marker value 0
and are masked as occluded.  The boundary track is the radius series under
the name ``R``, so the model's default ``radius`` geometry applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mbrom.data import BoundaryTrack, DomainMask, SnapshotSet, SpatialGrid


@dataclass(frozen=True)
class DiskConfig:
    n_side: int = 100
    half_width: float = 3.0
    base_radius: float = 1.0
    amplitude: float = 0.12
    omega: float = 0.1
    t_bar: float = 5.0

    def radius(self, t) -> np.ndarray:
        return self.base_radius - self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float))

    def grid(self) -> SpatialGrid:
        x = np.linspace(-self.half_width, self.half_width, self.n_side)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        h = x[1] - x[0]
        return SpatialGrid(
            dim=2,
            coords=np.column_stack([xx.ravel(), yy.ravel()]),
            quad_weights=np.full(x.size**2, h * h),
        )


def node_radius(grid: SpatialGrid) -> np.ndarray:
    """Distance of each node from the disk centre, computed as the model's
    ``radius`` geometry computes it, so masks agree node for node."""
    return np.sqrt(np.sum(grid.coords**2, axis=1))


def disk_field(r, t, cfg: DiskConfig) -> np.ndarray:
    """Analytic field r / (r^2 + R(t_bar)^2 - R(t)^2) outside the disk."""
    r = np.asarray(r, dtype=float)
    return r / (r * r + cfg.radius(cfg.t_bar) ** 2 - cfg.radius(t) ** 2)


def disk_snapshots(cfg: DiskConfig, t1: float, tM: float, M: int) -> SnapshotSet:
    """Masked field snapshots at M uniform times on [t1, tM]."""
    grid = cfg.grid()
    r = node_radius(grid)
    times = np.linspace(t1, tM, M)
    radii = cfg.radius(times)
    fields = np.zeros((M, grid.n_nodes))
    masks = []
    for i, t in enumerate(times):
        fluid = r >= radii[i]
        fields[i, fluid] = disk_field(r[fluid], t, cfg)
        masks.append(DomainMask(fluid))
    return SnapshotSet(
        grid=grid,
        times=times,
        fields=fields,
        masks=masks,
        boundary=BoundaryTrack(names=["R"], values=radii[:, None]),
        field_name="q",
    )
