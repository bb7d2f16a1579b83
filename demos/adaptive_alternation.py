"""Alternate an expensive solver with cheap ROM forecasts.

Each round: take a short window of solver snapshots, build a ROM, forecast
up to its certified horizon, and restart the solver from the forecast.  The
Burgers closed form stands in for the solver, so every handoff can be graded
against the exact solution.
"""

from mbrom import (
    BurgersConfig,
    Thresholds,
    adaptive_loop,
    burgers_exact,
    burgers_snapshots,
    relative_error,
)

cfg = BurgersConfig(reynolds=100.0)
DT = 0.01


def solver(state, t_start, n):
    # a real application would advance its own discretization from `state`;
    # the closed form needs only the restart time
    return burgers_snapshots(cfg, t_start, t_start + (n - 1) * DT, n)


forecasts, log = adaptive_loop(
    solver,
    window=20,
    thresholds=Thresholds(beta_gpr_a=0.01),
    t_target=1.2,
    t_start=0.3,
)

x = cfg.grid().coords[:, 0]
print(f"{'round':>5} {'window':>16} {'t*':>7} {'handoff':>8} {'bound by':>9} {'rel err':>8}")
for rec, fc in zip(log, forecasts):
    err = relative_error(fc.field, burgers_exact(x, rec.t_handoff, cfg), cfg.grid())
    print(
        f"{rec.round_index:5d} [{rec.t1:.3f}, {rec.tM:.3f}] {rec.t_star:7.3f} "
        f"{rec.t_handoff:8.3f} {rec.binding:>9} {err:8.4f}"
    )

solver_time = sum(rec.tM - rec.t1 for rec in log)
rom_time = sum(rec.t_handoff - rec.tM for rec in log)
print(f"\nsolver advanced {solver_time:.2f} time units; the ROM bridged "
      f"{rom_time:.2f} for free.")
