"""Error and predictive uncertainty as the forecast leaves the data behind.

With the window fixed, push the query time further and further past its end
and watch the true reconstruction error and the energy-weighted posterior
deviation grow together.  Their co-movement is what justifies using the
posterior deviation as an a-priori stopping criterion.
"""

import numpy as np

from mbrom import BurgersConfig, build, burgers_exact, burgers_snapshots, forecast

cfg = BurgersConfig(reynolds=500.0)
snaps = burgers_snapshots(cfg, 0.3, 0.5, 20)
model = build(snaps)
x = snaps.grid.coords[:, 0]
w = snaps.grid.quad_weights

print(f"R = {model.basis.retained} modes, t* = {model.t_star:.4f}")
print(f"{'dt*':>6} {'eps_rom':>10} {'weighted sigma':>15}")
for dt_star in np.linspace(0.03, 0.3, 10):
    tq = 0.5 + dt_star
    # force: the later queries lie past t* on purpose
    fc = forecast(model, tq, force=True)
    eps = np.sqrt(np.sum((fc.field - burgers_exact(x, tq, cfg)) ** 2 * w))
    print(f"{dt_star:6.2f} {eps:10.5f} {fc.sigma_weighted:15.2e}")

print("\nBoth columns are nondecreasing: the regression knows when it is")
print("guessing, before any truth data is consulted.")
