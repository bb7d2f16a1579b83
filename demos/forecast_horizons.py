"""How far ahead is a forecast defensible?

Three a-priori criteria bound the furthest forecast time: the decay rate of
the correlation eigenvalues (can the frozen subspace keep representing the
solution?), the energy-weighted posterior deviation of the mode coefficients
(is the time regression still confident?), and, with moving boundaries, the
same ratio for each boundary parameter.  The combined horizon is their
minimum.  This script sweeps the tolerances to show how each bound moves.
"""

import numpy as np

from mbrom import BurgersConfig, build, burgers_snapshots, forecast
from mbrom.gpr import gpr_horizon_modes
from mbrom.pod import pod_horizon

cfg = BurgersConfig(reynolds=100.0)
snaps = burgers_snapshots(cfg, 0.3, 0.5, 20)
model = build(snaps)
print(f"window [{model.t1}, {model.tM}], R = {model.basis.retained}")
print(
    f"defaults: t*_pod = {model.horizons['pod'].t_star:.4f}, "
    f"t*_gpr = {model.horizons['gpr_a'].t_star:.4f}, "
    f"combined t* = {model.t_star:.4f} (binding: {model.binding_component()})"
)

# the eigenvalue-decay bound scales linearly with its tolerance
print("\nsubspace-decay bound vs tolerance:")
for beta in (0.1, 0.2, 0.3, 0.5):
    h = pod_horizon(model.basis, model.t1, model.tM, beta)
    print(f"  beta_pod = {beta:4.2f} -> t* = {h.t_star:.4f}")

# the regression bound moves with the allowed uncertainty ratio
print("\ncoefficient-uncertainty bound vs tolerance:")
for beta in (0.01, 0.03, 0.1, 0.3):
    h = gpr_horizon_modes(
        model.mode_models,
        model.basis.eigenvalues,
        model.tM,
        beta,
        model.scan_step,
    )
    sigma = forecast(model, h.t_star, force=True).sigma_weighted
    print(f"  beta_gpr = {beta:4.2f} -> t* = {h.t_star:.4f}  "
          f"(weighted sigma there: {sigma:.2e})")

print("\nBoth bounds grow monotonically with their tolerance; the combined")
print("horizon always takes the smallest, so loosening one criterion never")
print("extends the forecast past what the other certifies.")
