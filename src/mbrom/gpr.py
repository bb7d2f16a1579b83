"""Gaussian process regression of scalar time series.

Squared-exponential kernel, exact Cholesky posterior, and marginal-likelihood
training.  Training standardizes inputs and outputs internally; predictions
are returned in the original units.  The two horizon scans turn posterior
uncertainty into a furthest defensible forecast time for the mode
coefficients and for the boundary parameters; each model predicts a whole
scan in one call.

``train_many`` fits every output that shares the training times at once.
For a length scale theta_l, let K_u = Q diag(e) Q^T be the unit-amplitude
kernel on the standardized times.  C = theta_f^2 (K_u + JITTER0 I) +
sigma^2 I then has eigenvalues c_i = theta_f^2 (e_i + JITTER0) + sigma^2 in
the same basis, so with z = Q^T y the NLML is
sum_i (z_i^2 / c_i + log c_i) / 2 + (M/2) log 2 pi, exact and O(M) for every
output and every (theta_f, sigma) (Rasmussen & Williams, GPML 2006, 5.4).
The search:

1. One ``eigh`` per point of a log theta_l grid spanning ``LOG_BOUNDS[1]``
   scores a (theta_f, sigma) grid for all outputs: sigma^2 / theta_f^2 on a
   fine grid, theta_f at its closed-form optimum on each such ray (clipped
   to the bounds).  Only the per-length-scale arrays are held at once.
2. Each output is refined from the two lowest local minima of its
   length-scale profile: a bounded scalar search in log theta_l, and at each
   of its steps an L-BFGS-B over (log theta_f, log sigma) with the exact
   eigenbasis gradient, started from the best point on the rays.
3. Tie rule: where the fitted kernel's largest off-diagonal on the training
   times is at most JITTER0, K = I there and only
   theta_f^2 (1 + JITTER0) + sigma^2 is identified.  The ridge goes to the
   noise: theta_f takes its lower bound and sigma^2 keeps the total, which
   leaves the NLML unchanged and makes the posterior deviation small.

There is no random start; the result depends only on the data.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import minimize, minimize_scalar

__all__ = [
    "Kernel",
    "GprTolerances",
    "GprModel",
    "GprHorizon",
    "BoundaryHorizon",
    "kernel_matrix",
    "nlml",
    "train",
    "train_many",
    "weighted_sigma",
    "gpr_horizon_modes",
    "gpr_horizon_boundary",
    "save_gpr_model",
    "load_gpr_model",
]

JITTER0 = 1e-10
JITTER_MAX = 1e-4
LOG_BOUNDS = ((-6.0, 6.0), (-6.0, 6.0), (-12.0, 2.0))  # log tf, log tl, log sigma


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential kernel: theta_f^2 exp(-theta_l^2 dt^2 / 2).

    ``theta_l`` is an inverse length scale (1/time).
    """

    theta_f: float
    theta_l: float

    def __post_init__(self):
        if self.theta_f <= 0 or self.theta_l <= 0:
            raise ValueError("kernel scales must be positive")


@dataclass(frozen=True)
class GprTolerances:
    """Uncertainty tolerances for the two GPR forecast-horizon criteria."""

    beta_gpr_a: float = 0.1
    beta_gpr_gamma: float = 0.1

    def __post_init__(self):
        if self.beta_gpr_a <= 0 or self.beta_gpr_gamma <= 0:
            raise ValueError("GPR tolerances must be positive")


def kernel_matrix(k: Kernel, t: np.ndarray, tp: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float).ravel()
    tp = np.asarray(tp, dtype=float).ravel()
    d = t[:, None] - tp[None, :]
    return k.theta_f**2 * np.exp(-0.5 * k.theta_l**2 * d * d)


def _chol_with_jitter(C: np.ndarray, tf2: float) -> tuple[np.ndarray, float]:
    """Cholesky of C + jitter*I, escalating jitter tenfold on failure."""
    jit = JITTER0 * tf2
    n = C.shape[0]
    while jit <= JITTER_MAX * tf2 * (1 + 1e-12):
        try:
            return np.linalg.cholesky(C + jit * np.eye(n)), jit
        except np.linalg.LinAlgError:
            jit *= 10.0
    raise np.linalg.LinAlgError(
        f"Cholesky failed even with jitter {JITTER_MAX:g}*theta_f^2"
    )


def nlml(
    k: Kernel, noise_var: float, t: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient.

    ``y`` is taken as-is (already mean-adjusted).  The gradient is with
    respect to (log theta_f, log theta_l, log sigma), computed from the
    standard trace identity.
    """
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    M = t.shape[0]
    K = kernel_matrix(k, t, t)
    C = K + noise_var * np.eye(M)
    L, _ = _chol_with_jitter(C, k.theta_f**2)
    alpha = cho_solve((L, True), y)
    value = float(
        0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * M * np.log(2 * np.pi)
    )
    Cinv = cho_solve((L, True), np.eye(M))
    W = Cinv - np.outer(alpha, alpha)
    d = t[:, None] - t[None, :]
    g_tf = 0.5 * np.sum(W * (2.0 * K))
    g_tl = 0.5 * np.sum(W * (-(k.theta_l**2) * d * d * K))
    g_sig = 0.5 * np.trace(W) * 2.0 * noise_var
    return value, np.array([g_tf, g_tl, g_sig])


class GprModel:
    """Trained (or directly constructed) GP over a scalar time series.

    The kernel and noise live in internal standardized units; predictions are
    de-standardized.  The prior mean is the constant sample mean of the
    training outputs.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise_var: float,
        train_t: np.ndarray,
        train_y: np.ndarray,
        t_mean: float = 0.0,
        t_scale: float = 1.0,
        y_scale: float = 1.0,
        used_fallback: bool = False,
    ):
        if noise_var < 0:
            raise ValueError("noise variance must be nonnegative")
        self.kernel = kernel
        self.noise_var = float(noise_var)
        self.train_t = np.asarray(train_t, dtype=float).ravel()
        self.train_y = np.asarray(train_y, dtype=float).ravel()
        if self.train_t.shape != self.train_y.shape:
            raise ValueError("training inputs and outputs differ in length")
        self.t_mean = float(t_mean)
        self.t_scale = float(t_scale)
        self.y_scale = float(y_scale)
        self.y_mean = float(self.train_y.mean())
        self.used_fallback = used_fallback

        self._ts = (self.train_t - self.t_mean) / self.t_scale
        self._ys = (self.train_y - self.y_mean) / self.y_scale
        C = kernel_matrix(kernel, self._ts, self._ts) + self.noise_var * np.eye(
            self._ts.shape[0]
        )
        self.factor, self.jitter = _chol_with_jitter(C, kernel.theta_f**2)
        self.alpha = cho_solve((self.factor, True), self._ys)

    # raw-unit hyperparameter views
    @property
    def theta_f(self) -> float:
        return self.kernel.theta_f * self.y_scale

    @property
    def theta_l(self) -> float:
        return self.kernel.theta_l / self.t_scale

    @property
    def noise_std(self) -> float:
        return float(np.sqrt(self.noise_var)) * self.y_scale

    def predict(self, t_query) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query times."""
        tq = np.atleast_1d(np.asarray(t_query, dtype=float)).ravel()
        ts = (tq - self.t_mean) / self.t_scale
        ks = kernel_matrix(self.kernel, ts, self._ts)
        mu = ks @ self.alpha
        v = solve_triangular(self.factor, ks.T, lower=True)
        var = self.kernel.theta_f**2 - np.sum(v * v, axis=0)
        var = np.clip(var, 0.0, None)
        return mu * self.y_scale + self.y_mean, np.sqrt(var) * self.y_scale


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


def train(t: np.ndarray, y: np.ndarray) -> GprModel:
    """Fit one GP to the series ``y`` (the one-column case of ``train_many``)."""
    y = np.asarray(y, dtype=float).ravel()
    return train_many(t, y[:, None])[0]


def weighted_sigma(models: list[GprModel], lambdas: np.ndarray, t_query: float) -> float:
    """Energy-weighted posterior deviation: sum_k lam_k s_k / sum_all lam."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    R = len(models)
    sigs = np.array([m.predict(t_query)[1][0] for m in models])
    return float((lam[:R] * sigs).sum() / lam.sum())


@dataclass(frozen=True)
class GprHorizon:
    """Scan result: furthest time where the uncertainty ratio stays in tolerance."""

    t_star: float
    sigma_weighted: float
    at_data_end: bool = False
    capped: bool = False


def _scan(
    models, tM: float, scan_step: float, max_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan times tM + n scan_step (n = 0..max_steps) and every model's
    posterior mean and deviation there, one column per model; each model
    predicts the whole scan in one kernel block and one triangular solve."""
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    times = tM + np.arange(max_steps + 1) * scan_step
    preds = [m.predict(times) for m in models]
    mu = np.column_stack([p[0] for p in preds])
    sd = np.column_stack([p[1] for p in preds])
    return times, mu, sd


def _last_ok(bad: np.ndarray) -> int:
    """Last scan step before the first violating one (0 is the data end)."""
    hits = np.flatnonzero(bad[1:])
    return int(hits[0]) if hits.size else bad.shape[0] - 1


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
    times, mu, sd = _scan(models, tM, scan_step, max_steps)
    lam = np.asarray(lambdas, dtype=float).ravel()
    w = lam[: len(models)]
    den = (w * np.abs(mu)).sum(axis=1)
    num = (w * sd).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        last = _last_ok((den <= 0.0) | (num / den > beta))
    if last == 0:
        warnings.warn(
            "GPR mode criterion violated at the first scan step; "
            "no extrapolation permitted",
            stacklevel=2,
        )
    t_star = float(times[last])
    return GprHorizon(
        t_star,
        weighted_sigma(models, lam, t_star),
        at_data_end=last == 0,
        capped=last == max_steps,
    )


@dataclass(frozen=True)
class BoundaryHorizon:
    """Per-parameter horizons and their minimum."""

    t_star: float
    per_param: tuple[float, ...]
    at_data_end: bool = False
    capped: bool = False


def gpr_horizon_boundary(
    track_models: list[GprModel],
    tM: float,
    beta: float,
    scan_step: float,
    max_steps: int = 1000,
) -> BoundaryHorizon:
    """Per-parameter sigma/|mu| horizon; the overall bound is the minimum."""
    times, mu, sd = _scan(track_models, tM, scan_step, max_steps)
    amu = np.abs(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (amu < 1e-12) | (sd / amu > beta)
    lasts = [_last_ok(bad[:, j]) for j in range(bad.shape[1])]
    stars = [float(times[k]) for k in lasts]
    any_end = 0 in lasts
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
        capped=max_steps in lasts,
    )


def save_gpr_model(m: GprModel, path: str | Path) -> None:
    payload = {
        "theta_f": m.kernel.theta_f,
        "theta_l": m.kernel.theta_l,
        "noise_var": m.noise_var,
        "t_mean": m.t_mean,
        "t_scale": m.t_scale,
        "y_scale": m.y_scale,
        "train_t": m.train_t.tolist(),
        "train_y": m.train_y.tolist(),
        "used_fallback": m.used_fallback,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_gpr_model(path: str | Path) -> GprModel:
    with open(path) as fh:
        p = json.load(fh)
    return GprModel(
        Kernel(p["theta_f"], p["theta_l"]),
        p["noise_var"],
        np.asarray(p["train_t"]),
        np.asarray(p["train_y"]),
        t_mean=p["t_mean"],
        t_scale=p["t_scale"],
        y_scale=p["y_scale"],
        used_fallback=p.get("used_fallback", False),
    )
