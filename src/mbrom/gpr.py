"""Gaussian process regression of scalar time series.

Squared-exponential kernel, exact Cholesky posterior, and marginal-likelihood
training, in numpy alone.  Training standardizes inputs and
outputs internally; predictions are returned in the original units.
``GprStack`` predicts several GPs with equal training sizes in one call;
``GprModel.predict`` is its one-GP case.  The two horizon scans turn
posterior uncertainty into a furthest defensible forecast time for the mode
coefficients and for the boundary parameters; each predicts its whole scan
through one ``GprStack``.

``train_many`` fits every output that shares the training times at once.
For a length scale theta_l, let K_u = Q diag(e) Q^T be the unit-amplitude
kernel on the standardized times.  C = theta_f^2 (K_u + JITTER0 I) +
sigma^2 I then has eigenvalues c_i = theta_f^2 (e_i + JITTER0) + sigma^2 in
the same basis, so with z = Q^T y the NLML is
sum_i (z_i^2 / c_i + log c_i) / 2 + (M/2) log 2 pi, exact and O(M) for every
output and every (theta_f, sigma) (Rasmussen & Williams, GPML 2006, 5.4).
At a fixed ratio r = sigma^2 / theta_f^2 the best theta_f^2 is q(r)/M,
q(r) = sum z_i^2 / (e_i + JITTER0 + r), clipped to the bounds, so theta_f is
profiled out exactly.  The search:

1. A log theta_l grid spanning ``LOG_BOUNDS[1]`` (stacked ``eigh`` over
   blocks of length scales) scores a fine log r grid for all outputs.
2. Each output is refined from the two lowest local minima of its
   length-scale profile, the (output, seed) pairs in lockstep over blocks
   of pairs: a golden-section search in log theta_l with one stacked
   ``eigh`` per step, and at each point a safeguarded Newton search in
   log r on the exact derivatives, warm-started from the previous ratio.
   No library optimizer.
3. Tie rule: where the fitted kernel's largest off-diagonal on the training
   times is at most JITTER0, K = I there and only
   theta_f^2 (1 + JITTER0) + sigma^2 is identified.  The ridge goes to the
   noise: theta_f takes its lower bound and sigma^2 keeps the total, which
   leaves the NLML unchanged and makes the posterior deviation small.
   theta_l, which every value past the tie threshold fits alike, takes its
   upper bound, so the fit does not depend on where the search stopped.

There is no random start; the result depends only on the data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "GprModel",
    "GprStack",
    "Horizon",
    "kernel_matrix",
    "nlml",
    "train",
    "train_many",
    "energy_weighted",
    "gpr_horizon_modes",
    "gpr_horizon_boundary",
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
    S = np.linalg.solve(L.T, np.linalg.solve(L, np.column_stack([y, np.eye(M)])))
    alpha, Cinv = S[:, 0], S[:, 1:]
    value = float(
        0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * M * np.log(2 * np.pi)
    )
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

        self._ts = (self.train_t - self.t_mean) / self.t_scale
        self._ys = (self.train_y - self.y_mean) / self.y_scale
        C = kernel_matrix(kernel, self._ts, self._ts) + self.noise_var * np.eye(
            self._ts.shape[0]
        )
        self.factor, self.jitter = _chol_with_jitter(C, kernel.theta_f**2)
        self.alpha = np.linalg.solve(
            self.factor.T, np.linalg.solve(self.factor, self._ys)
        )

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
        """Posterior mean and standard deviation at the query times (the
        one-GP case of ``GprStack.predict``)."""
        mu, sd = GprStack([self]).predict(t_query)
        return mu[0], sd[0]


class GprStack:
    """The posteriors of P GPs with equal training sizes M, predicted at Q
    query times in one call (Rasmussen & Williams, GPML 2006, Alg. 2.1).

    One kernel block (P, Q, M) serves all GPs, and the means are one batched
    product with the stacked ``alpha``.  For the variances the stack holds
    each factor L and its inverse X, and solves L v = k* as v = X k* refined
    by one step, v += X (k* - L v) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 12): three batched products.  On the
    fixture GPs, against an exact rational solve, sigma is within 9.4e-6
    relative (LAPACK's triangular solve 8.0e-6, the bare X k* 2.4e-2).
    Each GP's result is bit-identical to a solo prediction.  The factors,
    ``alpha`` and kernels are copied at construction; the output offset and
    scale are read at each call.
    """

    def __init__(self, models):
        self.models = tuple(models)
        sizes = sorted({m.train_t.shape[0] for m in self.models})
        if len(sizes) > 1:
            raise ValueError(f"stacked GPs need equal training sizes, got {sizes}")
        P, M = len(self.models), sizes[0] if sizes else 0
        self.t_mean, self.t_scale, self.tf2, self.neg_half_tl2 = np.array(
            [[m.t_mean, m.t_scale, m.kernel.theta_f**2, -0.5 * m.kernel.theta_l**2]
             for m in self.models], dtype=float,
        ).T.reshape(4, P, 1, 1)
        self.ts = np.array([m._ts for m in self.models]).reshape(P, 1, M)
        self.alpha = np.array([m.alpha for m in self.models]).reshape(P, M, 1)
        lower = np.array([m.factor for m in self.models]).reshape(P, M, M)
        # transposed, as the kernel block holds each k* as a row
        self.lower_t = lower.transpose(0, 2, 1).copy()
        self.inv_t = np.linalg.inv(lower).transpose(0, 2, 1).copy()

    def _kernel_block(self, tq: np.ndarray) -> np.ndarray:
        """tf2 exp((-theta_l^2 / 2) d d) at the query times, (P, Q, M),
        built in place: it holds at most two such blocks."""
        d = (tq[:, None] - self.t_mean) / self.t_scale - self.ts
        ks = self.neg_half_tl2 * d
        ks *= d
        del d
        np.exp(ks, out=ks)
        ks *= self.tf2
        return ks

    def predict(self, t_query) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and standard deviations, each (P, Q)."""
        tq = np.atleast_1d(np.asarray(t_query, dtype=float)).ravel()
        if not np.isfinite(tq).all():
            raise ValueError(f"query time {tq[~np.isfinite(tq)][0]} is not finite")
        ks = self._kernel_block(tq)
        mu = (ks @ self.alpha)[:, :, 0]
        # v^T = k*^T X^T, then v^T += (k*^T - v^T L^T) X^T; the residual
        # overwrites the kernel block, so a long scan holds three blocks
        v = ks @ self.inv_t
        ks -= v @ self.lower_t
        v += ks @ self.inv_t
        v *= v
        var = np.clip(self.tf2[:, :, 0] - np.sum(v, axis=2), 0.0, None)
        y_mean = np.array([m.y_mean for m in self.models])[:, None]
        y_scale = np.array([m.y_scale for m in self.models])[:, None]
        return mu * y_scale + y_mean, np.sqrt(var) * y_scale


_LOG2PI = float(np.log(2.0 * np.pi))
_TL_STEP = 0.1  # log theta_l grid step
_RATIO_STEP = 0.1  # log (sigma^2 / theta_f^2) grid step
_LOG_R = np.arange(  # every log ratio LOG_BOUNDS allows
    2 * (LOG_BOUNDS[2][0] - LOG_BOUNDS[0][1]),
    2 * (LOG_BOUNDS[2][1] - LOG_BOUNDS[0][0]) + 1e-9, _RATIO_STEP,
)
_GRID_FLOATS = 1 << 16  # floats per block of the length-scale grid
_TL_TOL = 1e-5  # log theta_l bracket width at which the refine stops
_NLML_TOL = 1e-10  # NLML left to gain at which a ratio search stops
_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def _spectra(
    d2: np.ndarray, log_tl: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues plus JITTER0 of the unit kernels exp(-theta_l^2 d^2 / 2),
    one row per length scale from one stacked ``eigh``, and the squared
    coordinates of ``ys`` in each eigenbasis."""
    e, Q = np.linalg.eigh(np.exp(-0.5 * np.exp(2.0 * log_tl)[:, None, None] * d2))
    return e + JITTER0, (Q.transpose(0, 2, 1) @ ys) ** 2


def _log_tf2_bounds(log_r: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bounds of log theta_f^2 on the ray sigma^2 = r theta_f^2 inside
    ``LOG_BOUNDS``, and their slopes in log r (-1 where sigma's binds)."""
    (a_lo, a_hi), _, (b_lo, b_hi) = LOG_BOUNDS
    lo, hi = 2 * b_lo - log_r, 2 * b_hi - log_r
    return (np.maximum(2 * a_lo, lo), np.minimum(2 * a_hi, hi),
            -1.0 * (lo > 2 * a_lo), -1.0 * (hi < 2 * a_hi))


_RAYS = tuple(np.exp(v) for v in (_LOG_R, *_log_tf2_bounds(_LOG_R)[:2]))


def _ray_scores(s: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Profiled NLML at every ratio of ``_LOG_R``, (length scales, outputs,
    ratios), from eigenvalues ``s`` and squared coordinates ``z2``
    (length scales, times, outputs).  Products of 16 factors s + r, each in
    [JITTER0, e^16 + M], stay inside the double range, so the log
    determinant takes one log per 16."""
    M = s.shape[1]
    c = s[:, :, None] + _RAYS[0]
    logdet = sum(np.log(c[:, i:i + 16].prod(axis=1)) for i in range(0, M, 16))
    q = z2.transpose(0, 2, 1) @ np.reciprocal(c, out=c)
    tf2 = np.clip(q / M, _RAYS[1], _RAYS[2])
    return 0.5 * (q / tf2 + M * np.log(tf2) + logdet[:, None, :] + M * _LOG2PI)


def _profile(
    s: np.ndarray, z2: np.ndarray, log_r: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Profiled NLML of each row (one output at one length scale) at its log
    ratio, its first two derivatives there, and log theta_f^2.

    With r = exp(log_r) and u = r / (s + r), q = sum z2 / (s + r) has
    log-ratio derivatives -sum z2 u^2 / r and sum z2 (2u^3 - u^2) / r, and
    L = sum log(s + r) has sum u and sum u - u^2.  The NLML at
    theta_f^2 = exp(g) is (q exp(-g) + M g + L + M log 2 pi) / 2, with
    g = log(q / M) clipped to ``_log_tf2_bounds``.
    """
    M = s.shape[1]
    r = np.exp(log_r)[:, None]
    u = r / (s + r)
    zu = z2 * u
    a1, a2, a3 = zu.sum(axis=1), (zu * u).sum(axis=1), (zu * u * u).sum(axis=1)
    l1 = u.sum(axis=1)
    l2 = l1 - (u * u).sum(axis=1)
    data = a1 > 0  # a zero output has no data term
    h1 = np.divide(-a2, a1, out=np.zeros_like(a1), where=data)  # q'/q
    h2 = np.divide(2.0 * a3 - a2, a1, out=np.zeros_like(a1), where=data)  # q''/q
    g_free = np.log(a1 / M, out=np.full_like(a1, -np.inf), where=data) - log_r
    lo, hi, lo_slope, hi_slope = _log_tf2_bounds(log_r)
    g = np.minimum(np.maximum(g_free, lo), hi)
    g1 = np.where(g_free < lo, lo_slope, np.where(g_free > hi, hi_slope, h1))
    g2 = np.where(g == g_free, h2 - h1 * h1, 0.0)
    fit = M * np.exp(g_free - g)  # q exp(-g)
    value = 0.5 * (fit + M * (g + log_r + _LOG2PI) - np.log(u).sum(axis=1))
    d1 = 0.5 * (fit * (h1 - g1) + M * g1 + l1)
    d2 = 0.5 * (fit * (h2 - 2.0 * h1 * g1 + g1 * g1 - g2) + M * g2 + l2)
    return value, d1, d2, g


def _ratio_search(
    d2: np.ndarray, ys: np.ndarray, log_tl: np.ndarray, log_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local minimum in log ratio of the profiled NLML of each output row of
    ``ys`` at its length scale, from ``log_r``, all rows in lockstep: the
    value, the log ratio and log theta_f^2 there.

    Each slope sign narrows a bracket.  Until it has two ends a step is
    Newton's, at most a reach that starts at ``_RATIO_STEP`` and doubles
    each step (all of it without positive curvature); then it is Newton's
    inside the bracket, or the midpoint.  A row stops once the NLML left to
    gain, Newton's estimate or |slope| x bracket, is at most ``_NLML_TOL``.
    """
    s, z2 = _spectra(d2, log_tl, ys[:, :, None])
    z2 = z2[:, :, 0]
    lo = np.full_like(log_r, _LOG_R[0] - 1.0)  # no end found yet
    hi = np.full_like(log_r, _LOG_R[-1] + 1.0)
    reach = np.full_like(log_r, _RATIO_STEP)
    done = np.zeros(log_r.shape, dtype=bool)
    for _ in range(100):  # 60 bisections narrow any bracket to rounding
        value, slope, curv, g = _profile(s, z2, log_r)
        lo, hi = np.where(slope < 0, log_r, lo), np.where(slope > 0, log_r, hi)
        curved = curv > 0
        newton = np.divide(-slope, curv, out=np.copysign(np.inf, -slope), where=curved)
        gain = np.divide(slope * slope, curv, out=np.full_like(slope, np.inf), where=curved)
        done |= np.minimum(gain, np.abs(slope) * (hi - lo)) <= _NLML_TOL
        if done.all():
            return value, log_r, g
        new = np.clip(log_r + np.clip(newton, -reach, reach), _LOG_R[0], _LOG_R[-1])
        inside = (lo < log_r + newton) & (log_r + newton < hi)
        bracketed = (lo >= _LOG_R[0]) & (hi <= _LOG_R[-1])
        new = np.where(bracketed, np.where(inside, log_r + newton, 0.5 * (lo + hi)), new)
        log_r, reach = np.where(done, log_r, new), 2.0 * reach
    value, _, _, g = _profile(s, z2, log_r)
    return value, log_r, g


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


def _pick(mask: np.ndarray, u: tuple, v: tuple) -> tuple:
    """Row-wise ``u`` where ``mask`` holds, else ``v``, for tuples of arrays."""
    return tuple(np.where(mask, x, y) for x, y in zip(u, v))


def _refine(
    d2: np.ndarray, ys: np.ndarray, log_tl: np.ndarray, a: np.ndarray,
    b: np.ndarray, log_r: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Lockstep golden-section search in log theta_l over the bracket
    [a, b] of every (output, seed) row of ``ys``, from its centre ``log_tl``
    and ratio ``log_r``; each new point's ratio search starts from the
    better kept point's.  Points are (NLML, log ratio, log theta_f^2,
    log theta_l); returns the best evaluated point of each row."""
    x = np.concatenate([log_tl, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)])
    fits = _ratio_search(d2, np.tile(ys, (3, 1)), x, np.tile(log_r, 3))
    best, p1, p2 = zip(*(np.split(v, 3) for v in (*fits, x)))
    for p in (p1, p2):
        best = _pick(p[0] < best[0], p, best)
    while np.max(b - a) > _TL_TOL:
        left = p1[0] < p2[0]  # the minimum is in [a, x2]
        a, b = np.where(left, a, p1[3]), np.where(left, p2[3], b)
        kept = _pick(left, p1, p2)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        p = (*_ratio_search(d2, ys, x, kept[1]), x)
        p1, p2 = _pick(left, p, kept), _pick(left, kept, p)
        best = _pick(p[0] < best[0], p, best)
    return best


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
    Ys = np.column_stack([(y - float(y.mean())) / sc for y, sc in zip(cols, y_scales)])

    M = ts.shape[0]
    d2 = (ts[:, None] - ts[None, :]) ** 2
    d2_min = float(np.min(d2 + np.diag(np.full(M, np.inf))))
    grid = np.arange(LOG_BOUNDS[1][0], LOG_BOUNDS[1][1] + 1e-9, _TL_STEP)
    profile = np.empty((grid.shape[0], Ys.shape[1]))
    start = np.empty_like(profile)  # best log ratio at each grid point
    chunk = max(1, _GRID_FLOATS // (_LOG_R.shape[0] * (M + Ys.shape[1])))
    for i in range(0, grid.shape[0], chunk):
        val = _ray_scores(*_spectra(d2, grid[i:i + chunk], Ys))
        profile[i:i + chunk], start[i:i + chunk] = val.min(axis=2), _LOG_R[val.argmin(axis=2)]

    pairs = [(p, k) for p in range(Ys.shape[1]) for k in _local_minima(profile[:, p], 2)]
    out, k = (np.array(v) for v in zip(*pairs))
    a, b = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.shape[0] - 1)]
    block = max(1, _GRID_FLOATS // (6 * M * M))  # _refine holds ~6 M x M per pair
    f, log_r, g, log_tl = (np.concatenate(v) for v in zip(*(
        _refine(d2, Ys[:, out[s]].T, grid[k[s]], a[s], b[s], start[k[s], out[s]])
        for s in (slice(i, i + block) for i in range(0, out.shape[0], block))
    )))

    models = []
    for p, (y, y_scale) in enumerate(zip(cols, y_scales)):
        rows = np.flatnonzero(out == p)
        i = rows[np.argmin(f[rows])]  # ties go to the first seed
        log_tf, log_sig, log_l = 0.5 * g[i], 0.5 * (g[i] + log_r[i]), log_tl[i]
        if np.exp(-0.5 * np.exp(2.0 * log_l) * d2_min) <= JITTER0:  # tie rule
            total = np.exp(2.0 * log_tf) * (1.0 + JITTER0) + np.exp(2.0 * log_sig)
            log_tf, log_l = LOG_BOUNDS[0][0], LOG_BOUNDS[1][1]
            rest = total - np.exp(2.0 * log_tf) * (1.0 + JITTER0)
            log_sig = float(np.clip(0.5 * np.log(rest), *LOG_BOUNDS[2]))
        models.append(GprModel(
            Kernel(float(np.exp(log_tf)), float(np.exp(log_l))),
            float(np.exp(2.0 * log_sig)), t, y,
            t_mean=t_mean, t_scale=t_scale, y_scale=y_scale,
        ))
    return models


def train(t: np.ndarray, y: np.ndarray) -> GprModel:
    """Fit one GP to the series ``y`` (the one-column case of ``train_many``)."""
    y = np.asarray(y, dtype=float).ravel()
    return train_many(t, y[:, None])[0]


def energy_weighted(sigmas: np.ndarray, lambdas: np.ndarray) -> float:
    """Energy-weighted posterior deviation sum_k lam_k s_k / sum_all lam, over
    the R deviations ``sigmas`` of the leading modes."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    return float((lam[: len(sigmas)] * sigmas).sum() / lam.sum())


@dataclass(frozen=True)
class Horizon:
    """One criterion's furthest forecast time t*, and whether its scan
    stopped at the data end (no extrapolation) or at the step cap."""

    t_star: float
    at_data_end: bool = False
    capped: bool = False

    def __post_init__(self):
        t = self.t_star
        if isinstance(t, bool) or not isinstance(t, (int, float)) or math.isnan(t):
            raise ValueError(f"t_star must be a number, not {t!r}")
        for name in ("at_data_end", "capped"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")


def _scan(
    stack: GprStack, tM: float, scan_step: float, max_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan times tM + n scan_step (n = 0..max_steps) and every stacked GP's
    posterior mean and deviation there, one column per GP, from one
    ``GprStack.predict`` call."""
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    times = tM + np.arange(max_steps + 1) * scan_step
    mu, sd = (np.ascontiguousarray(a.T) for a in stack.predict(times))
    return times, mu, sd


def _horizon(times: np.ndarray, bad: np.ndarray, warning: str) -> Horizon:
    """The scan's ``Horizon``: the last step before the first violating one.
    Step 0 is the data end, where ``warning`` is issued to the scan's caller."""
    hits = np.flatnonzero(bad[1:])
    last = int(hits[0]) if hits.size else bad.shape[0] - 1
    if last == 0:
        warnings.warn(warning, stacklevel=3)
    return Horizon(
        float(times[last]), at_data_end=last == 0, capped=last == bad.shape[0] - 1
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
    times, mu, sd = _scan(GprStack(models), tM, scan_step, max_steps)
    w = np.asarray(lambdas, dtype=float).ravel()[: len(models)]
    den = (w * np.abs(mu)).sum(axis=1)
    num = (w * sd).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (den <= 0.0) | (num / den > beta)
    return _horizon(
        times, bad,
        "GPR mode criterion violated at the first scan step; "
        "no extrapolation permitted",
    )


def gpr_horizon_boundary(
    track_models: list[GprModel],
    tM: float,
    beta: float,
    scan_step: float,
    max_steps: int = 1000,
) -> Horizon:
    """Largest grid time where every parameter's sigma/|mu| stays <= beta,
    the minimum of the per-parameter horizons; the flags are the binding
    parameter's."""
    times, mu, sd = _scan(GprStack(track_models), tM, scan_step, max_steps)
    amu = np.abs(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (amu < 1e-12) | (sd / amu > beta)
    return _horizon(
        times, bad.any(axis=1),
        "a boundary-parameter criterion is violated at the first scan "
        "step; no extrapolation permitted",
    )
