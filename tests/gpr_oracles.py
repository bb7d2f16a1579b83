"""Reference implementations of GP training and the two horizon scans.

``train`` is the multi-start L-BFGS-B fit over the full three-parameter
likelihood (a lattice of length scales around the median pairwise distance
crossed with three noise levels); ``gpr_horizon_modes`` and
``gpr_horizon_boundary`` predict one scan time per call.  The library prices
the likelihood in the kernel's eigenbasis and predicts a whole scan in one
block; these are the plain definitions it is checked against.
"""

import warnings

import numpy as np
from scipy.optimize import minimize

from mbrom.gpr import (
    LOG_BOUNDS,
    BoundaryHorizon,
    GprHorizon,
    GprModel,
    Kernel,
    nlml,
    weighted_sigma,
)


def _median_heuristic(ts: np.ndarray) -> float:
    d = np.abs(ts[:, None] - ts[None, :])[np.triu_indices(ts.shape[0], 1)]
    d = d[d > 0]
    return float(np.median(d)) if d.size else 1.0


def train(t: np.ndarray, y: np.ndarray, seed: int = 0, n_starts: int = 15) -> GprModel:
    """Fit kernel scales and noise by minimizing the marginal likelihood.

    Runs L-BFGS-B from a deterministic lattice of starting points (length
    scales around the median pairwise distance crossed with three noise
    levels); extra randomized starts are added only when ``n_starts``
    exceeds the lattice size.  If every start fails, falls back to the
    median-heuristic hyperparameters with a warning.
    """
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if t.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")

    t_mean, t_scale = float(t.mean()), float(t.std())
    t_scale = t_scale if t_scale > 0 else 1.0
    y_mean = float(y.mean())
    y_scale = float((y - y_mean).std())
    y_scale = y_scale if y_scale > 0 else 1.0
    ts = (t - t_mean) / t_scale
    ys = (y - y_mean) / y_scale

    ltl0 = np.log(1.0 / _median_heuristic(ts))
    lo = np.array([b[0] for b in LOG_BOUNDS])
    hi = np.array([b[1] for b in LOG_BOUNDS])
    starts = [
        np.clip(np.array([0.0, ltl0 + dl, lsig]), lo, hi)
        for dl in (np.log(0.25), np.log(0.5), 0.0, np.log(2.0), np.log(4.0))
        for lsig in (np.log(1e-6), np.log(1e-4), np.log(1e-2))
    ]
    if n_starts > len(starts):
        rng = np.random.default_rng(seed)
        for _ in range(n_starts - len(starts)):
            starts.append(np.clip(
                np.array([0.0, ltl0, np.log(1e-4)]) + rng.uniform(-2, 2, 3), lo, hi
            ))

    def objective(p):
        tf, tl, sig = np.exp(p)
        try:
            return nlml(Kernel(tf, tl), sig**2, ts, ys)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(3)

    best = None
    for p0 in starts[:max(n_starts, 1)]:
        res = minimize(
            objective,
            p0,
            jac=True,
            method="L-BFGS-B",
            bounds=LOG_BOUNDS,
            options={"maxiter": 200},
        )
        if np.isfinite(res.fun) and res.fun < 1e24 and (best is None or res.fun < best.fun):
            best = res

    if best is None:
        warnings.warn(
            "all L-BFGS restarts diverged; using median-heuristic hyperparameters",
            stacklevel=2,
        )
        kernel = Kernel(1.0, float(np.exp(ltl0)))
        return GprModel(
            kernel, 1e-4, t, y,
            t_mean=t_mean, t_scale=t_scale, y_scale=y_scale,
        )

    ltf, ltl, lsig = best.x
    kernel = Kernel(float(np.exp(ltf)), float(np.exp(ltl)))
    return GprModel(
        kernel, float(np.exp(2 * lsig)), t, y,
        t_mean=t_mean, t_scale=t_scale, y_scale=y_scale,
    )


def gpr_horizon_modes(
    models: list[GprModel],
    lambdas: np.ndarray,
    tM: float,
    beta: float,
    scan_step: float,
    max_steps: int = 1000,
) -> GprHorizon:
    """Largest grid time where the weighted sigma/|mu| ratio stays <= beta.

    The ratio weights each mode's posterior deviation and |mean| by its
    eigenvalue; the scan stops at the first violating step.  A sign change
    driving the denominator to zero counts as a violation.
    """
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    lam = np.asarray(lambdas, dtype=float).ravel()
    R = len(models)
    t_star = tM
    for n in range(1, max_steps + 1):
        tq = tM + n * scan_step
        mus = np.empty(R)
        sigs = np.empty(R)
        for k, m in enumerate(models):
            mu, sg = m.predict(tq)
            mus[k], sigs[k] = mu[0], sg[0]
        den = float((lam[:R] * np.abs(mus)).sum())
        num = float((lam[:R] * sigs).sum())
        if den <= 0.0 or num / den > beta:
            if n == 1:
                warnings.warn(
                    "GPR mode criterion violated at the first scan step; "
                    "no extrapolation permitted",
                    stacklevel=2,
                )
                return GprHorizon(tM, weighted_sigma(models, lam, tM), at_data_end=True)
            return GprHorizon(t_star, weighted_sigma(models, lam, t_star))
        t_star = tq
    return GprHorizon(t_star, weighted_sigma(models, lam, t_star), capped=True)


def gpr_horizon_boundary(
    track_models: list[GprModel],
    tM: float,
    beta: float,
    scan_step: float,
    max_steps: int = 1000,
) -> BoundaryHorizon:
    """Per-parameter sigma/|mu| horizon; the overall bound is the minimum."""
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    stars = []
    any_end = False
    any_cap = False
    for m in track_models:
        t_star = tM
        capped = True
        for n in range(1, max_steps + 1):
            tq = tM + n * scan_step
            mu, sg = m.predict(tq)
            if abs(mu[0]) < 1e-12 or sg[0] / abs(mu[0]) > beta:
                capped = False
                if n == 1:
                    any_end = True
                break
            t_star = tq
        any_cap |= capped
        stars.append(t_star)
    if any_end:
        warnings.warn(
            "a boundary-parameter criterion is violated at the first scan "
            "step; no extrapolation permitted",
            stacklevel=2,
        )
    return BoundaryHorizon(
        t_star=float(min(stars)),
        per_param=tuple(stars),
        at_data_end=any_end,
        capped=any_cap,
    )
