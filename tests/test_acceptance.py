"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion; each test enforces its stated tolerances.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve

from mbrom.benchmarks import (
    BubbleConfig,
    BurgersConfig,
    bubble_snapshots,
    bubble_strain,
    burgers_exact,
    burgers_snapshots,
)
from mbrom.data import fill_occluded, inner_product
from mbrom.galerkin import assemble_operators, integrate
from mbrom.gpr import (
    GprModel,
    Kernel,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    kernel_matrix,
    nlml,
    train,
)
from mbrom.mls import MlsConfig, mls_value
from mbrom.pod import (
    PodBasis,
    decompose,
    pod_horizon,
    reconstruct,
    reconstruction_error,
    truncate,
)
from mbrom.rom import Thresholds, adaptive_loop, build, forecast, relative_error

RE_VALUES = (1.0, 100.0, 300.0, 500.0)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def burgers_sets():
    out = {}
    for re in RE_VALUES:
        cfg = BurgersConfig(reynolds=re)
        t_begin = time.perf_counter()
        s = burgers_snapshots(cfg, 0.3, 0.5, 20)
        basis_full = decompose(s)
        basis = truncate(basis_full, 0.01)
        elapsed = time.perf_counter() - t_begin
        out[re] = (cfg, s, basis_full, basis, elapsed)
    return out


@pytest.fixture(scope="module")
def bubble_run():
    cfg = BubbleConfig()
    snaps, _ = bubble_snapshots(cfg, 51.0, 60.0, 10)
    model = build(snaps)
    t_query = 64.0
    fc = forecast(model, t_query, force=t_query > model.t_star)
    return cfg, snaps, model, fc


def gpr_forecast_field(s, basis, t_query, r=None):
    r = basis.retained if r is None else r
    models = [train(s.times, basis.coeffs[:, k]) for k in range(r)]
    mus = np.array([m.predict(t_query)[0][0] for m in models])
    sigs = np.array([m.predict(t_query)[1][0] for m in models])
    field = s.mean + mus @ basis.modes[:r]
    sigma_w = float((basis.eigenvalues[:r] * sigs).sum() / basis.eigenvalues.sum())
    return field, sigma_w


def test_criterion_1_burgers_mode_counts(burgers_sets):
    expected = {1.0: 1, 100.0: 2, 300.0: 4, 500.0: 4}
    got = {re: burgers_sets[re][3].retained for re in RE_VALUES}
    times = {re: burgers_sets[re][4] for re in RE_VALUES}
    ok = got == expected and all(dt < 10.0 for dt in times.values())
    detail = ", ".join(
        f"Re={re:g}: R={got[re]} (want {expected[re]}, {times[re]:.2f}s)"
        for re in RE_VALUES
    )
    report(1, ok, detail)
    assert all(dt < 10.0 for dt in times.values())
    assert got == expected, (
        f"retained mode counts {got} != reference counts {expected}; "
        "the Re=300 spectrum already satisfies the 0.01 RRMS threshold at R=3"
    )


def test_criterion_2_burgers_forecast_accuracy(burgers_sets):
    tol = {1.0: 0.05, 100.0: 0.05, 500.0: 0.25}
    results = {}
    shock_gap = None
    for re in (1.0, 100.0, 500.0):
        cfg, s, _, basis, _ = burgers_sets[re]
        x = s.grid.coords[:, 0]
        truth = burgers_exact(x, 0.6, cfg)
        field_gpr, _ = gpr_forecast_field(s, basis, 0.6)
        ops = assemble_operators(basis, s.mean, s.grid, re)
        dt = (s.times[1] - s.times[0]) / 100.0
        _, traj = integrate(ops, basis.coeffs[0], (0.3, 0.6), dt, np.array([0.6]))
        field_gal = reconstruct(basis, s.mean, traj[-1])
        results[re] = (
            relative_error(field_gpr, truth, s.grid),
            relative_error(field_gal, truth, s.grid),
        )
        if re == 500.0:
            # error should concentrate near the steep front
            err = np.abs(field_gpr - truth)
            grad = np.abs(np.gradient(truth, x))
            shock_gap = abs(x[np.argmax(err)] - x[np.argmax(grad)])
    ok = all(max(results[re]) <= tol[re] for re in results) and shock_gap <= 0.1
    detail = ", ".join(
        f"Re={re:g}: gpr={results[re][0]:.4f} galerkin={results[re][1]:.4f} "
        f"(tol {tol[re]})"
        for re in results
    ) + f"; Re=500 peak-error offset from front {shock_gap:.3f} (<=0.1)"
    report(2, ok, detail)
    for re in results:
        assert results[re][0] <= tol[re]
        assert results[re][1] <= tol[re]
    assert shock_gap <= 0.1


def test_criterion_3_pod_identities(burgers_sets, bubble_run):
    datasets = [burgers_sets[100.0][1], burgers_sets[500.0][1]]
    datasets.append(fill_occluded(bubble_run[1]))
    worst_orth = worst_trace = worst_recon = 0.0
    for s in datasets:
        b = decompose(s)
        m = s.n_snapshots
        keep = b.eigenvalues > 0.0
        gram = np.array(
            [
                [inner_product(b.modes[k], b.modes[l], s.grid) for l in range(m)]
                for k in range(m)
            ]
        )
        worst_orth = max(
            worst_orth, np.abs(gram - np.diag(keep.astype(float))).max()
        )
        energy = sum(inner_product(s.fluct[i], s.fluct[i], s.grid) for i in range(m))
        worst_trace = max(
            worst_trace, abs(b.eigenvalues.sum() - energy) / energy
        )
        scale = np.sqrt(b.eigenvalues.sum())
        for r in range(m + 1):
            direct = reconstruction_error(s, b, r)
            formula = np.sqrt(b.eigenvalues[r:].sum())
            worst_recon = max(worst_recon, abs(direct - formula) / scale)
    ok = worst_orth <= 1e-8 and worst_trace <= 1e-10 and worst_recon <= 1e-8
    report(
        3,
        ok,
        f"orthonormality {worst_orth:.2e} (<=1e-8), trace {worst_trace:.2e} "
        f"(<=1e-10), tail identity {worst_recon:.2e} (<=1e-8)",
    )
    assert worst_orth <= 1e-8
    assert worst_trace <= 1e-10
    assert worst_recon <= 1e-8


def test_criterion_4_gpr_correctness():
    # (a) analytic NLML gradient vs central differences over 50 seeds
    worst_grad = 0.0
    step = 1e-5
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 3.0, 8))
        y = rng.standard_normal(8)
        p = rng.uniform([-0.5, -0.5, -2.5], [0.5, 0.5, -0.5], 3)

        def value(q):
            v, _ = nlml(Kernel(np.exp(q[0]), np.exp(q[1])), np.exp(2 * q[2]), t, y)
            return v

        _, grad = nlml(Kernel(np.exp(p[0]), np.exp(p[1])), np.exp(2 * p[2]), t, y)
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            fd = (value(p + e) - value(p - e)) / (2.0 * step)
            denom = max(abs(fd), 1e-2)
            worst_grad = max(worst_grad, abs(grad[i] - fd) / denom)

    # (b) posterior against a dense-solve oracle
    rng = np.random.default_rng(123)
    t = np.sort(rng.uniform(0.0, 1.0, 6))
    y = rng.standard_normal(6)
    k = Kernel(0.9, 2.0)
    m = GprModel(k, 0.01, t, y)
    tq = np.linspace(-0.5, 1.5, 21)
    mu, sg = m.predict(tq)
    C = kernel_matrix(k, t, t) + (0.01 + m.jitter) * np.eye(6)
    Ks = kernel_matrix(k, tq, t)
    mu_o = Ks @ solve(C, y - y.mean()) + y.mean()
    sg_o = np.sqrt(
        np.clip(k.theta_f**2 - np.sum(Ks * solve(C, Ks.T).T, axis=1), 0, None)
    )
    worst_post = max(np.abs(mu - mu_o).max(), np.abs(sg - sg_o).max())

    # (c) far-field deviation approaches the signal scale
    t = np.linspace(0.0, 2.0, 15)
    m2 = train(t, np.sin(3.0 * t))
    _, far_sig = m2.predict(t[-1] + 9.0 / m2.theta_l)
    far_gap = abs(far_sig[0] - m2.theta_f)

    ok = worst_grad <= 1e-5 and worst_post <= 1e-9 and far_gap <= 1e-6
    report(
        4,
        ok,
        f"gradient {worst_grad:.2e} (<=1e-5), posterior {worst_post:.2e} "
        f"(<=1e-9), far-field {far_gap:.2e} (<=1e-6)",
    )
    assert worst_grad <= 1e-5
    assert worst_post <= 1e-9
    assert far_gap <= 1e-6


def test_criterion_5_error_growth(burgers_sets):
    cfg, s, basis_full, _, _ = burgers_sets[500.0]
    r = 4
    models = [train(s.times, basis_full.coeffs[:, k]) for k in range(r)]
    lam = basis_full.eigenvalues
    x = s.grid.coords[:, 0]
    eps_list, sig_list = [], []
    for dt_star in np.linspace(0.03, 0.3, 10):
        tq = 0.5 + dt_star
        mus = np.array([m.predict(tq)[0][0] for m in models])
        sigs = np.array([m.predict(tq)[1][0] for m in models])
        field = s.mean + mus @ basis_full.modes[:r]
        diff = field - burgers_exact(x, tq, cfg)
        eps_list.append(float(np.sqrt(np.sum(diff**2 * s.grid.quad_weights))))
        sig_list.append(float((lam[:r] * sigs).sum() / lam.sum()))
    eps_ok = all(b >= a - 1e-12 for a, b in zip(eps_list, eps_list[1:]))
    sig_ok = all(b >= a - 1e-12 for a, b in zip(sig_list, sig_list[1:]))
    ok = eps_ok and sig_ok
    report(
        5,
        ok,
        f"eps range [{eps_list[0]:.4f}, {eps_list[-1]:.4f}] nondecreasing={eps_ok}; "
        f"sigma range [{sig_list[0]:.2e}, {sig_list[-1]:.2e}] nondecreasing={sig_ok}",
    )
    assert eps_ok and sig_ok


def test_criterion_6_horizon_criteria(burgers_sets, bubble_run):
    # closed-form arithmetic of the eigenvalue-decay bound
    lam = np.array([100.0, 10.0, 1.0, 0.1, 0.01])
    basis = PodBasis(lam, np.zeros((5, 4)), 2, np.zeros((5, 5)))
    t_pod = pod_horizon(basis, 0.3, 0.5, 0.3).t_star
    closed_form = 0.5 + (0.5 - 0.3) * 0.3 * (np.log(lam[1]) - np.log(lam[3])) / 2.0
    arith_gap = abs(t_pod - closed_form)

    # both GPR horizons monotone in their tolerance
    _, s, basis_full, basis_tr, _ = burgers_sets[100.0]
    models = [train(s.times, basis_tr.coeffs[:, k]) for k in range(basis_tr.retained)]
    step = (s.times[-1] - s.times[0]) / 20.0
    mode_stars = [
        gpr_horizon_modes(models, basis_full.eigenvalues, 0.5, b, step,
                          max_steps=300).t_star
        for b in (0.01, 0.03, 0.1, 0.3)
    ]
    cfg_b = bubble_run[0]
    tb = np.linspace(51.0, 60.0, 10)
    bmodel = train(tb, cfg_b.radius(tb))
    bound_stars = [
        gpr_horizon_boundary([bmodel], 60.0, b, 0.9, max_steps=300).t_star
        for b in (0.002, 0.01, 0.05, 0.2)
    ]
    mono_modes = all(a <= b for a, b in zip(mode_stars, mode_stars[1:]))
    mono_bound = all(a <= b for a, b in zip(bound_stars, bound_stars[1:]))

    # composed horizon equals the component minimum exactly
    model = bubble_run[2]
    composed = model.t_star == min(
        model.horizon_pod.t_star,
        model.horizon_gpr_a.t_star,
        model.horizon_gpr_gamma.t_star,
    )
    ok = arith_gap <= 1e-12 and mono_modes and mono_bound and composed
    report(
        6,
        ok,
        f"closed-form gap {arith_gap:.2e} (<=1e-12), mode horizon monotone="
        f"{mono_modes}, boundary horizon monotone={mono_bound}, "
        f"composed-min exact={composed}",
    )
    assert arith_gap <= 1e-12
    assert mono_modes and mono_bound and composed


def test_criterion_7_mls_correction(bubble_run):
    cfg, snaps, model, fc = bubble_run
    r = snaps.grid.coords[:, 0]
    truth = bubble_strain(r, fc.t_query, cfg)
    uncorrected = fc.field.copy()
    for node, _, before, _ in fc.correction_report.rows:
        uncorrected[node] = before
    exp = fc.corrected_nodes
    before = np.abs(uncorrected - truth)[exp].max()
    after = np.abs(fc.field - truth)[exp].max()
    fluid_now = model.fluid_mask_at(fc.t_query)
    idx = np.flatnonzero(fluid_now)
    w = snaps.grid.quad_weights[idx]
    rel = float(
        np.sqrt(
            np.sum((fc.field - truth)[idx] ** 2 * w)
            / np.sum(truth[idx] ** 2 * w)
        )
    )

    # polynomial reproduction at degree 3
    xs = np.linspace(-0.5, 0.5, 12)
    poly = lambda x: 0.3 * x**3 - 2.0 * x**2 + x - 4.0
    cfg_fit = MlsConfig(order=3, min_neighbor_factor=1.5)
    rep_err = abs(mls_value(0.07, xs[:, None], poly(xs), cfg_fit, h=1.2)
                  - poly(0.07))

    # observed convergence order over three radius halvings
    rates_ok = True
    rate_text = []
    for s_ord in (1, 2, 3):
        cfg_s = MlsConfig(order=s_ord, min_neighbor_factor=1.5)
        errs = []
        for h in (0.4, 0.2, 0.1, 0.05):
            pts = np.linspace(-0.3 * h, 0.95 * h, 24)
            errs.append(
                abs(mls_value(0.0, pts[:, None], np.exp(pts), cfg_s, h=h) - 1.0)
                + 1e-18
            )
        rate = np.log2(np.array(errs[:-1]) / np.array(errs[1:])).mean()
        rate_text.append(f"s={s_ord}: {rate:.2f}")
        rates_ok &= abs(rate - (s_ord + 1)) <= 0.5

    ok = (after < before) and rel <= 0.1 and rep_err <= 1e-9 and rates_ok
    report(
        7,
        ok,
        f"exposed max err {before:.4f}->{after:.4f}, overall rel {rel:.4f} "
        f"(<=0.1), cubic reproduction {rep_err:.1e} (<=1e-9), rates "
        + ", ".join(rate_text),
    )
    assert exp.size > 0
    assert after < before
    assert rel <= 0.1
    assert rep_err <= 1e-9
    assert rates_ok


def test_criterion_8_adaptive_loop():
    cfg = BurgersConfig(reynolds=100.0)

    def solver(state, t0, n):
        return burgers_snapshots(cfg, t0, t0 + (n - 1) * 0.01, n)

    t_begin = time.perf_counter()
    forecasts, log = adaptive_loop(
        solver, 20, Thresholds(beta_gpr_a=0.01),
        t_target=1.2, t_start=0.3,
    )
    elapsed = time.perf_counter() - t_begin
    hand = [rec.t_handoff for rec in log]
    increasing = all(a < b for a, b in zip(hand, hand[1:]))
    x = cfg.grid().coords[:, 0]
    errs = [
        relative_error(fc.field, burgers_exact(x, rec.t_handoff, cfg), cfg.grid())
        for rec, fc in zip(log, forecasts)
    ]
    ok = (
        bool(log)
        and hand[-1] == pytest.approx(1.2)
        and increasing
        and all(e <= 0.1 for e in errs)
        and elapsed < 60.0
    )
    report(
        8,
        ok,
        f"{len(log)} segments, handoffs {['%.3f' % h for h in hand]}, "
        f"errors {['%.4f' % e for e in errs]} (<=0.1), {elapsed:.1f}s (<60s)",
    )
    assert log and hand[-1] == pytest.approx(1.2)
    assert increasing
    assert all(e <= 0.1 for e in errs)
    assert elapsed < 60.0
