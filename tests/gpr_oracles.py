"""Reference implementations of GP training and the two horizon scans.

``train`` is the multi-start L-BFGS-B fit over the full three-parameter
likelihood (a lattice of length scales around the median pairwise distance
crossed with three noise levels).  ``train_many`` is the profile-likelihood
search the library ran before its lockstep refine: the same length-scale
and noise-ratio grids, then per output a bounded scalar search in the
length scale with an L-BFGS-B over (theta_f, sigma) at each step.
``gpr_horizon_modes`` and ``gpr_horizon_boundary`` predict one scan time per
call.  ``predict`` is one GP's posterior through scipy's triangular solve,
and ``exact_variance`` its variance by forward substitution in rationals.
The library prices the likelihood in the kernel's eigenbasis, predicts a
whole scan in one block and stacks the GPs of a forecast; these are the
plain definitions it is checked against.
"""

import warnings
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize, minimize_scalar

from mbrom.gpr import (
    JITTER0,
    LOG_BOUNDS,
    GprModel,
    Horizon,
    Kernel,
    kernel_matrix,
    nlml,
)


def predict(m: GprModel, t_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of one GP at the query times."""
    tq = np.atleast_1d(np.asarray(t_query, dtype=float)).ravel()
    if not np.isfinite(tq).all():
        raise ValueError(f"query time {tq[~np.isfinite(tq)][0]} is not finite")
    ts = (tq - m.t_mean) / m.t_scale
    ks = kernel_matrix(m.kernel, ts, m._ts)
    mu = ks @ m.alpha
    v = solve_triangular(m.factor, ks.T, lower=True, check_finite=False)
    var = m.kernel.theta_f**2 - np.sum(v * v, axis=0)
    var = np.clip(var, 0.0, None)
    return mu * m.y_scale + m.y_mean, np.sqrt(var) * m.y_scale


def exact_variance(factor: np.ndarray, k: np.ndarray, tf2: float) -> Fraction:
    """tf2 - |v|^2 with L v = k solved exactly: every float of the lower
    factor L, the kernel column k and tf2 is taken as the rational it is."""
    L = [[Fraction(float(x)) for x in row[: i + 1]] for i, row in enumerate(factor)]
    v: list[Fraction] = []
    for i, row in enumerate(L):
        v.append((Fraction(float(k[i])) - sum(a * b for a, b in zip(row, v))) / row[i])
    return Fraction(float(tf2)) - sum(x * x for x in v)


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
) -> Horizon:
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
                return Horizon(tM, at_data_end=True)
            return Horizon(t_star)
        t_star = tq
    return Horizon(t_star, capped=True)


def gpr_horizon_boundary(
    track_models: list[GprModel],
    tM: float,
    beta: float,
    scan_step: float,
    max_steps: int = 1000,
) -> Horizon:
    """Per-parameter sigma/|mu| horizon; the overall bound is the minimum,
    and the flags are those of the parameter that binds: at the data end
    when it stops at the first step, capped when it reaches the step cap."""
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    steps = []
    for m in track_models:
        last = max_steps
        for n in range(1, max_steps + 1):
            mu, sg = m.predict(tM + n * scan_step)
            if abs(mu[0]) < 1e-12 or sg[0] / abs(mu[0]) > beta:
                last = n - 1
                break
        steps.append(last)
    last = min(steps)
    if last == 0:
        warnings.warn(
            "a boundary-parameter criterion is violated at the first scan "
            "step; no extrapolation permitted",
            stacklevel=2,
        )
    return Horizon(tM + last * scan_step, at_data_end=last == 0, capped=last == max_steps)


_LOG2PI = float(np.log(2.0 * np.pi))
_TL_STEP = 0.1  # log theta_l grid step
_RATIO_STEP = 0.1  # log (sigma^2 / theta_f^2) grid step
_BRENT_XTOL = 1e-5  # log theta_l tolerance of the refine


def _spectrum(
    d2: np.ndarray, log_tl: float, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the unit-amplitude kernel exp(-theta_l^2 d^2 / 2) plus
    JITTER0, and the squared coordinates of ``ys`` in its eigenbasis."""
    e, Q = np.linalg.eigh(np.exp(-0.5 * np.exp(2.0 * log_tl) * d2))
    return e + JITTER0, (Q.T @ ys) ** 2


def _ray_scores(s: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, ...]:
    """NLML on the noise-ratio grid with theta_f profiled out.

    ``s`` holds the kernel eigenvalues plus JITTER0 and ``z2`` the squared
    eigenbasis coordinates of the standardized outputs (one column each).
    Along a ray sigma^2 = r theta_f^2 the NLML is unimodal in theta_f^2
    with minimum q(r)/M, q(r) = sum z2 / (s + r); clipping that into the
    ray's part of ``LOG_BOUNDS`` gives the exact constrained minimum on the
    ray.  Returns the values and (log theta_f, log sigma), each (ratios, P).
    """
    (a_lo, a_hi), _, (b_lo, b_hi) = LOG_BOUNDS
    log_r = np.arange(2 * (b_lo - a_hi), 2 * (b_hi - a_lo) + 1e-9, _RATIO_STEP)
    M = s.shape[0]
    inv = 1.0 / (s[None, :] + np.exp(log_r)[:, None])
    q = inv @ z2
    lo = np.maximum(2 * a_lo, 2 * b_lo - log_r)[:, None]
    hi = np.minimum(2 * a_hi, 2 * b_hi - log_r)[:, None]
    tf2 = np.clip(q / M, np.exp(lo), np.exp(hi))
    log_tf2 = np.log(tf2)
    logdet = -np.log(inv).sum(axis=1)[:, None]
    val = 0.5 * (q / tf2 + M * log_tf2 + logdet + M * _LOG2PI)
    return val, 0.5 * log_tf2, 0.5 * (log_tf2 + log_r[:, None])


def _eig_nlml(p: np.ndarray, s: np.ndarray, z2: np.ndarray) -> tuple[float, np.ndarray]:
    """NLML of one output and its gradient in (log theta_f, log sigma).

    In the kernel's eigenbasis C has eigenvalues c = theta_f^2 s + sigma^2,
    so value and gradient are sums over M terms with no solve.
    """
    u, v = np.exp(2.0 * p)
    c = u * s + v
    w = 1.0 / c - z2 / (c * c)
    value = 0.5 * float(np.sum(z2 / c + np.log(c)) + s.shape[0] * _LOG2PI)
    return value, np.array([u * float(w @ s), v * float(w.sum())])


def _fit_at(
    d2: np.ndarray, ys: np.ndarray, log_tl: float
) -> tuple[float, float, float]:
    """Best (NLML, log theta_f, log sigma) of one output at one length scale:
    the best point of the noise-ratio rays, polished by L-BFGS-B."""
    s, z2 = _spectrum(d2, log_tl, ys)
    val, la, lb = _ray_scores(s, z2[:, None])
    j = int(np.argmin(val[:, 0]))
    res = minimize(
        _eig_nlml,
        np.array([la[j, 0], lb[j, 0]]),
        args=(s, z2),
        jac=True,
        method="L-BFGS-B",
        bounds=(LOG_BOUNDS[0], LOG_BOUNDS[2]),
        options={"maxiter": 200, "ftol": 1e-15, "gtol": 1e-10},
    )
    return float(res.fun), float(res.x[0]), float(res.x[1])


def _local_minima(profile: np.ndarray, count: int) -> list[int]:
    """Indices of the ``count`` lowest local minima of a 1-D profile whose
    one-step brackets do not overlap; ties go to the lower index."""
    left = np.r_[True, profile[1:] < profile[:-1]]
    right = np.r_[profile[:-1] <= profile[1:], True]
    picked: list[int] = []
    for k in np.argsort(profile, kind="stable"):
        if left[k] and right[k] and all(abs(int(k) - j) >= 2 for j in picked):
            picked.append(int(k))
            if len(picked) == count:
                break
    return picked


def train_many(t: np.ndarray, Y: np.ndarray) -> list[GprModel]:
    """Fit one GP per column of ``Y`` (times x outputs) by maximizing the
    marginal likelihood; the search and its tie rule are described in the
    module docstring.  Of the points each output's search evaluates, the
    one with the lowest NLML wins.
    """
    t = np.asarray(t, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != t.shape[0]:
        raise ValueError(
            f"outputs must be a (times, outputs) array with {t.shape[0]} rows"
        )
    if t.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(Y))):
        raise ValueError("training data must be finite")

    t_mean, t_scale = float(t.mean()), float(t.std())
    t_scale = t_scale if t_scale > 0 else 1.0
    ts = (t - t_mean) / t_scale
    if Y.shape[1] == 0:
        return []
    cols = [np.ascontiguousarray(y) for y in Y.T]
    y_scales = [float((y - float(y.mean())).std()) or 1.0 for y in cols]
    ys_cols = [(y - float(y.mean())) / sc for y, sc in zip(cols, y_scales)]
    Ys = np.column_stack(ys_cols)

    d2 = (ts[:, None] - ts[None, :]) ** 2
    d2_min = float(np.min(d2 + np.diag(np.full(ts.shape[0], np.inf))))
    grid = np.arange(LOG_BOUNDS[1][0], LOG_BOUNDS[1][1] + 1e-9, _TL_STEP)
    profile = np.empty((grid.shape[0], Ys.shape[1]))
    for i, log_tl in enumerate(grid):
        profile[i] = _ray_scores(*_spectrum(d2, log_tl, Ys))[0].min(axis=0)

    models = []
    for p, (y, y_scale, ys) in enumerate(zip(cols, y_scales, ys_cols)):
        best = (np.inf, 0.0, 0.0, 0.0)

        def objective(log_tl):
            nonlocal best
            val, la, lb = _fit_at(d2, ys, log_tl)
            if val < best[0]:
                best = (val, float(log_tl), la, lb)
            return val

        for k in _local_minima(profile[:, p], 2):
            objective(grid[k])  # the bounded search never samples its centre
            minimize_scalar(
                objective,
                bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
                method="bounded",
                options={"xatol": _BRENT_XTOL},
            )
        _, log_tl, log_tf, log_sig = best
        if np.exp(-0.5 * np.exp(2.0 * log_tl) * d2_min) <= JITTER0:  # tie rule
            total = np.exp(2.0 * log_tf) * (1.0 + JITTER0) + np.exp(2.0 * log_sig)
            log_tf = LOG_BOUNDS[0][0]
            rest = total - np.exp(2.0 * log_tf) * (1.0 + JITTER0)
            log_sig = float(np.clip(0.5 * np.log(rest), *LOG_BOUNDS[2]))
        models.append(GprModel(
            Kernel(float(np.exp(log_tf)), float(np.exp(log_tl))),
            float(np.exp(2.0 * log_sig)), t, y,
            t_mean=t_mean, t_scale=t_scale, y_scale=y_scale,
        ))
    return models
