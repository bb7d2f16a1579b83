"""Moving-boundary pipeline on the shrinking-cavity strain benchmark.

A spherical cavity in an elastic medium shrinks over time; nodes inside it
carry no data.  The pipeline (1) regresses the radius itself, (2) fills the
occluded nodes so the decomposition can run over the whole grid, (3)
forecasts the strain field past the data window, and (4) repairs the region
that the cavity swept over, where the filled snapshot data was fabricated,
by moving least squares interpolation from nodes that held real data
throughout.  Everything is validated against the closed-form strain model.
"""

import numpy as np

from mbrom import (
    BubbleConfig,
    bubble_snapshots,
    bubble_strain,
    build,
    forecast,
    relative_error,
)

cfg = BubbleConfig()
snaps, track = bubble_snapshots(cfg, 51.0, 60.0, 10)
r = snaps.grid.coords[:, 0]

print(f"radius over the window: {track.values[0,0]:.4f} -> {track.values[-1,0]:.4f}")
model = build(snaps)
print(
    f"R = {model.basis.retained} modes; horizons: "
    f"pod {model.horizon_pod.t_star:.2f}, coeffs {model.horizon_gpr_a.t_star:.2f}, "
    f"boundary {model.horizon_gpr_gamma.t_star:.2f} -> t* = {model.t_star:.2f}"
)

T_QUERY = 64.0
fc = forecast(model, T_QUERY, force=T_QUERY > model.t_star)
truth = bubble_strain(r, T_QUERY, cfg)
print(
    f"\nforecast at t = {T_QUERY} (forced: {fc.forced}); predicted radius "
    f"{fc.boundary_values['R']:.4f} vs true {cfg.radius(T_QUERY):.4f}"
)

# undo the correction to show what it bought
uncorrected = fc.field.copy()
for node, _, before, _ in fc.correction_report.rows:
    uncorrected[node] = before

exposed = fc.corrected_nodes
print(f"corrected nodes: {exposed.size} "
      f"(r in [{r[exposed].min():.3f}, {r[exposed].max():.3f}])")
print(f"max error on them before: {np.abs(uncorrected - truth)[exposed].max():.4f}")
print(f"max error on them after:  {np.abs(fc.field - truth)[exposed].max():.4f}")

# scored over the predicted fluid region, as `mbrom forecast --truth` does
fluid = fc.fluid_mask
rel = lambda f: relative_error(
    np.where(fluid, f, 0.0), np.where(fluid, truth, 0.0), snaps.grid
)
print(f"relative L2 error over the fluid region: "
      f"{rel(uncorrected):.4f} -> {rel(fc.field):.4f}")

print("\nprofile through the swept region (truth / before / after):")
lo, hi = exposed.min() - 2, exposed.max() + 3
for j in range(lo, hi):
    tag = "*" if j in exposed else " "
    print(f"  r={r[j]:.3f}{tag} {truth[j]:8.4f} {uncorrected[j]:8.4f} "
          f"{fc.field[j]:8.4f}")
