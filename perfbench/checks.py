"""Correctness checks on benchmark outputs, against closed forms and method
properties rather than stored copies of earlier output.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import numpy as np

BURGERS_RETAINED = 4
BURGERS_TOL = 0.25  # Re=500 forecast tolerance of acceptance criterion 2
FLUID_TOL = 0.1  # fluid-region tolerance of acceptance criterion 7


def weighted_rel_error(pred, truth, weights) -> float:
    """Quadrature-weighted relative L2 error ||truth - pred|| / ||truth||."""
    diff = truth - pred
    return float(np.sqrt(np.sum(diff * diff * weights) / np.sum(truth * truth * weights)))


def check_retained(retained: int) -> list[str]:
    if retained != BURGERS_RETAINED:
        return [f"retained {retained} modes, want {BURGERS_RETAINED}"]
    return []


def check_burgers_forecast(field, truth, weights, t: float) -> list[str]:
    err = weighted_rel_error(field, truth, weights)
    if not err <= BURGERS_TOL:
        return [f"t={t!r}: relative error {err:.4g} > {BURGERS_TOL}"]
    return []


def check_moving_forecast(
    field,
    truth,
    weights,
    fluid_now,
    window_fluid,
    corrected_nodes,
    corrected_before,
    t: float,
) -> list[str]:
    """Checks on a moving-boundary forecast.

    ``fluid_now`` is the fluid mask under the forecast's own boundary
    prediction and ``window_fluid`` flags nodes that were fluid in every
    snapshot; their difference is the set of newly exposed nodes, which the
    correction must cover exactly.  ``corrected_before`` holds the values the
    reconstruction gave the corrected nodes before the correction.
    """
    errors = []
    err = weighted_rel_error(field[fluid_now], truth[fluid_now], weights[fluid_now])
    if not err <= FLUID_TOL:
        errors.append(f"t={t!r}: fluid-region relative error {err:.4g} > {FLUID_TOL}")
    corrected_nodes = np.asarray(corrected_nodes, dtype=int)
    exposed = np.flatnonzero(fluid_now & ~window_fluid)
    missing = np.setdiff1d(exposed, corrected_nodes)
    if missing.size:
        errors.append(f"t={t!r}: {missing.size} exposed nodes left uncorrected")
    extra = np.setdiff1d(corrected_nodes, exposed)
    if extra.size:
        errors.append(f"t={t!r}: {extra.size} corrected nodes were not exposed")
    if corrected_nodes.size:
        before = np.abs(np.asarray(corrected_before) - truth[corrected_nodes]).max()
        after = np.abs(field[corrected_nodes] - truth[corrected_nodes]).max()
        if not after < before:
            errors.append(
                f"t={t!r}: correction did not lower the exposed-node max error "
                f"({before:.4g} -> {after:.4g})"
            )
    return errors


def check_identical(field, reference, t: float) -> list[str]:
    if not np.array_equal(field, reference):
        n = int(np.sum(field != reference)) if field.shape == reference.shape else -1
        return [f"t={t!r}: reloaded-model forecast differs from in-memory at {n} nodes"]
    return []
