"""Command-line front end.

Subcommands: ``gen`` (benchmark datasets), ``build`` (ROM construction),
``forecast``, ``horizon``, ``bench`` (result-table suites) and ``adaptive``
(solver/ROM alternation on the Burgers closed form).  Flag values win over
the optional JSON config file, which wins over defaults; the seed can also
come from the MBROM_SEED environment variable.  ``build`` records the seed in
report.json, but GP training is deterministic and does not use it.  Exit
codes: 0 success, 1 input or validation error, 2 forecast beyond the
certified horizon without --force.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import benchmarks as bench_mod
from . import pod as pod_mod
from .data import FMT, load_snapshots, save_dataset, write_matrix
from .galerkin import assemble_operators, integrate
from .gpr import GprStack, GprTolerances, train_many
from .mls import MlsConfig
from .pod import PodThresholds
from .rom import (
    HorizonExceededError,
    adaptive_loop,
    build,
    forecast,
    load_rom_model,
    relative_error,
    save_rom_model,
)

__all__ = ["main"]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_dump(payload, path: Path) -> str:
    """Write ``payload`` as JSON to ``path``; returns the text less its newline."""
    text = _json_text(payload)
    path.write_text(text + "\n")
    return text


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    return int(os.environ.get("MBROM_SEED", "0"))


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _thresholds(args, config) -> tuple[PodThresholds, GprTolerances, MlsConfig]:
    thr = PodThresholds(
        alpha_pod=_resolve(args, config, "alpha_pod", 0.01),
        beta_pod=_resolve(args, config, "beta_pod", 0.3),
    )
    tol = GprTolerances(
        beta_gpr_a=_resolve(args, config, "beta_gpr_a", 0.1),
        beta_gpr_gamma=_resolve(args, config, "beta_gpr_gamma", 0.1),
    )
    mls = MlsConfig(order=int(_resolve(args, config, "mls_order", 3)))
    return thr, tol, mls


def _horizons(model) -> dict:
    """The three horizons, their minimum t* and the binding criterion."""
    return {
        "t_star_pod": model.horizon_pod.t_star,
        "t_star_gpr_a": model.horizon_gpr_a.t_star,
        "t_star_gpr_gamma": (
            model.horizon_gpr_gamma.t_star
            if model.horizon_gpr_gamma is not None
            else None
        ),
        "t_star": model.t_star,
        "binding": model.binding_component(),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    if args.benchmark == "burgers":
        cfg = bench_mod.BurgersConfig(
            reynolds=_resolve(args, config, "re", 100.0),
            nx=int(_resolve(args, config, "nx", 1001)),
            dx=1.0 / (int(_resolve(args, config, "nx", 1001)) - 1),
        )
        t1 = _resolve(args, config, "t1", 0.3)
        tm = _resolve(args, config, "tm", 0.5)
        m = int(_resolve(args, config, "m", 20))
        snaps = bench_mod.burgers_snapshots(cfg, t1, tm, m)
    else:
        cfg = bench_mod.BubbleConfig(
            amplitude=_resolve(args, config, "amplitude", 0.12),
            omega=_resolve(args, config, "omega", 0.1),
            nr=int(_resolve(args, config, "nr", 270)),
        )
        t1 = _resolve(args, config, "t1", 51.0)
        tm = _resolve(args, config, "tm", 60.0)
        m = int(_resolve(args, config, "m", 10))
        snaps, _ = bench_mod.bubble_snapshots(cfg, t1, tm, m)
    manifest = save_dataset(snaps, out)
    print(f"wrote {manifest.parent}")
    return 0


def cmd_build(args) -> int:
    config = _load_config(args)
    thr, tol, mls = _thresholds(args, config)
    seed = _seed(args, config)
    snaps = load_snapshots(args.dataset)
    model = build(
        snaps,
        thresholds=thr,
        tolerances=tol,
        mls_cfg=mls,
        fill_order=int(_resolve(args, config, "fill_order", 0)),
        seed=seed,
    )
    out = Path(args.out)
    save_rom_model(model, out)
    report = {
        "R": model.basis.retained,
        "eigenvalues": model.basis.eigenvalues.tolist(),
        "rrms_tail": model.basis.rrms_tail,
        "ric": model.basis.ric.tolist(),
        "mode_hyperparameters": [
            {"theta_f": m.theta_f, "theta_l": m.theta_l, "noise_std": m.noise_std}
            for m in model.mode_models
        ],
        **_horizons(model),
        "seed": seed,
    }
    _json_dump(report, out / "report.json")
    print(f"R={report['R']}  t*={report['t_star']:.6g}  ({report['binding']})")
    return 0


def cmd_forecast(args) -> int:
    config = _load_config(args)
    model = load_rom_model(args.model)
    fc = forecast(model, args.t, force=args.force)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "field.csv", np.column_stack([model.grid.coords, fc.field]))
    summary = {
        "t_query": fc.t_query,
        "t_star_pod": fc.t_star_pod,
        "t_star_gpr_a": fc.t_star_gpr_a,
        "t_star_gpr_gamma": fc.t_star_gpr_gamma,
        "t_star": fc.t_star,
        "sigma_weighted": fc.sigma_weighted,
        "eps_pod_tail": fc.eps_pod_tail,
        "eps_mls": fc.eps_mls,
        "forced": fc.forced,
        "corrected_node_count": (
            int(fc.corrected_nodes.size) if fc.corrected_nodes is not None else 0
        ),
        "boundary_values": fc.boundary_values,
    }
    if args.truth:
        truth_snaps = load_snapshots(args.truth)
        coords = truth_snaps.grid.coords
        if coords.shape != model.grid.coords.shape:
            raise ValueError(
                f"truth grid has {coords.shape[0]} nodes, the model grid "
                f"{model.grid.n_nodes}"
            )
        offset = float(np.max(np.abs(coords - model.grid.coords)))
        if offset > 0.0:
            raise ValueError(
                f"truth grid differs from the model grid: largest coordinate "
                f"offset {offset:.3g}"
            )
        idx = int(np.argmin(np.abs(truth_snaps.times - fc.t_query)))
        if abs(truth_snaps.times[idx] - fc.t_query) > 1e-9:
            raise ValueError(
                f"truth dataset has no snapshot at t={fc.t_query:.6g}"
            )
        # a moving-boundary forecast is scored over its predicted fluid region
        fluid = True if fc.fluid_mask is None else fc.fluid_mask
        summary["relative_error"] = relative_error(
            np.where(fluid, fc.field, 0.0),
            np.where(fluid, truth_snaps.fields[idx], 0.0),
            model.grid,
        )
    if fc.correction_report is not None and fc.correction_report.rows:
        fc.correction_report.to_csv(out / "correction_report.csv")
    print(_json_dump(summary, out / "summary.json"))
    return 0


def cmd_horizon(args) -> int:
    text = _json_text(_horizons(load_rom_model(args.model)))
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# bench suites


def _burgers(re: float):
    cfg = bench_mod.BurgersConfig(reynolds=re)
    snaps = bench_mod.burgers_snapshots(cfg, 0.3, 0.5, 20)
    return cfg, snaps, bench_mod.burgers_exact(snaps.grid.coords[:, 0], 0.6, cfg)


def _bench_burgers_sweep(out: Path) -> None:
    rows = []
    for re in (1.0, 100.0, 300.0, 500.0):
        _, snaps, truth = _burgers(re)
        basis = pod_mod.decompose(snaps)
        gps = GprStack(train_many(snaps.times, basis.coeffs[:, :8]))
        coeffs = gps.predict(0.6)[0][:, 0]
        for r in range(1, 9):
            field = pod_mod.reconstruct(
                pod_mod.truncate_to(basis, r), snaps.mean, coeffs[:r]
            )
            rows.append((re, r, relative_error(field, truth, snaps.grid)))
    with open(out / "burgers_sweep.csv", "w") as fh:
        fh.write("re,r,rel_error\n")
        for re, r, err in rows:
            fh.write(f"{re:g},{r},{FMT % err}\n")


def _bench_error_growth(out: Path) -> None:
    cfg, snaps, _ = _burgers(500.0)
    model = build(snaps)
    x = snaps.grid.coords[:, 0]
    rows = []
    for dt_star in np.linspace(0.03, 0.3, 10):
        tq = 0.5 + dt_star
        fc = forecast(model, tq, force=True)
        diff = bench_mod.burgers_exact(x, tq, cfg) - fc.field
        eps = float(
            np.sqrt(np.sum(diff * diff * snaps.grid.quad_weights))
        )
        rows.append((dt_star, eps, fc.sigma_weighted))
    write_matrix(
        out / "error_growth.csv", np.array(rows), header="dt_star,eps_rom,sigma_weighted"
    )


def _bench_galerkin_compare(out: Path) -> None:
    rows = []
    for re in (1.0, 100.0, 300.0, 500.0):
        _, snaps, truth = _burgers(re)
        model = build(snaps)
        basis = model.basis
        field_gpr = forecast(model, 0.6, force=True).field
        ops = assemble_operators(basis, model.mean, snaps.grid, re)
        dt = (snaps.times[1] - snaps.times[0]) / 100.0
        _, traj = integrate(
            ops, basis.coeffs[0], (snaps.times[0], 0.6), dt, np.array([0.6])
        )
        field_gal = pod_mod.reconstruct(basis, model.mean, traj[-1])
        rows.append(
            (
                re,
                basis.retained,
                relative_error(field_gpr, truth, snaps.grid),
                relative_error(field_gal, truth, snaps.grid),
            )
        )
    with open(out / "galerkin_compare.csv", "w") as fh:
        fh.write("re,r,err_gpr,err_galerkin\n")
        for re, r, eg, el in rows:
            fh.write(f"{re:g},{r},{FMT % eg},{FMT % el}\n")


def _bench_bubble(out: Path) -> None:
    cfg = bench_mod.BubbleConfig()
    snaps, _ = bench_mod.bubble_snapshots(cfg, 51.0, 60.0, 10)
    model = build(snaps)
    t_query = 64.0
    fc = forecast(model, t_query, force=True)
    r = snaps.grid.coords[:, 0]
    truth = bench_mod.bubble_strain(r, t_query, cfg)
    uncorrected = fc.field.copy()
    for node, _, before, _ in fc.correction_report.rows:
        uncorrected[node] = before
    write_matrix(
        out / "bubble_fields.csv",
        np.column_stack([r, truth, uncorrected, fc.field]),
        header="r,truth,rom_uncorrected,rom_corrected",
    )
    if fc.correction_report.rows:
        fc.correction_report.to_csv(out / "bubble_correction_report.csv")
    exp = fc.corrected_nodes
    err_b = float(np.abs(uncorrected - truth)[exp].max()) if exp.size else 0.0
    err_a = float(np.abs(fc.field - truth)[exp].max()) if exp.size else 0.0
    # scored over the predicted fluid region
    truth_fluid = np.where(fc.fluid_mask, truth, 0.0)
    summary = {
        "t_query": t_query,
        "t_star": fc.t_star,
        "forced": fc.forced,
        "corrected_node_count": int(exp.size),
        "max_err_exposed_before": err_b,
        "max_err_exposed_after": err_a,
        "rel_error_uncorrected": relative_error(
            np.where(fc.fluid_mask, uncorrected, 0.0), truth_fluid, model.grid
        ),
        "rel_error_corrected": relative_error(
            np.where(fc.fluid_mask, fc.field, 0.0), truth_fluid, model.grid
        ),
        "boundary_values": fc.boundary_values,
    }
    _json_dump(summary, out / "bubble_summary.json")


def cmd_bench(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suite = {
        "burgers-sweep": _bench_burgers_sweep,
        "error-growth": _bench_error_growth,
        "galerkin-compare": _bench_galerkin_compare,
        "bubble": _bench_bubble,
    }[args.suite]
    suite(out)
    print(f"wrote {out}")
    return 0


def cmd_adaptive(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    re = _resolve(args, config, "re", 100.0)
    m = int(_resolve(args, config, "m", 20))
    dt = _resolve(args, config, "dt", 0.01)
    t_start = _resolve(args, config, "t_start", 0.3)
    t_target = _resolve(args, config, "t_target", 1.2)
    cfg = bench_mod.BurgersConfig(reynolds=re)

    def solver(state, t0, n):
        return bench_mod.burgers_snapshots(cfg, t0, t0 + (n - 1) * dt, n)

    thr, tol, _ = _thresholds(args, config)
    forecasts, log = adaptive_loop(
        solver, m, thr, tol, t_target, t_start, seed=seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    x = cfg.grid().coords[:, 0]
    with open(out / "handoffs.csv", "w") as fh:
        fh.write("round,t1,tM,t_star,t_handoff,binding,rel_error\n")
        for rec, fc in zip(log, forecasts):
            truth = bench_mod.burgers_exact(x, rec.t_handoff, cfg)
            err = relative_error(fc.field, truth, cfg.grid())
            fh.write(
                f"{rec.round_index},{FMT % rec.t1},{FMT % rec.tM},"
                f"{FMT % rec.t_star},{FMT % rec.t_handoff},{rec.binding},"
                f"{FMT % err}\n"
            )
    print(f"{len(log)} ROM segments to t={t_target:g}; wrote {out}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves it
    unchanged and fills a fresh namespace from its defaults, so no value
    carries from one ``main`` call to the next."""
    p = argparse.ArgumentParser(
        prog="mbrom",
        description="Nonintrusive reduced-order modeling with moving boundaries",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
        sp.add_argument("--seed", type=int, default=None)

    g = sub.add_parser("gen", help="generate a benchmark dataset")
    g.add_argument("benchmark", choices=["burgers", "bubble"])
    g.add_argument("--re", type=float, default=None)
    g.add_argument("--nx", type=int, default=None)
    g.add_argument("--nr", type=int, default=None)
    g.add_argument("--amplitude", type=float, default=None)
    g.add_argument("--omega", type=float, default=None)
    g.add_argument("--t1", type=float, default=None)
    g.add_argument("--tm", "--tM", dest="tm", type=float, default=None)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a ROM from a dataset directory")
    b.add_argument("dataset")
    b.add_argument("--out", required=True)
    b.add_argument("--alpha-pod", dest="alpha_pod", type=float, default=None)
    b.add_argument("--beta-pod", dest="beta_pod", type=float, default=None)
    b.add_argument("--beta-gpr-a", dest="beta_gpr_a", type=float, default=None)
    b.add_argument("--beta-gpr-gamma", dest="beta_gpr_gamma", type=float, default=None)
    b.add_argument("--mls-order", dest="mls_order", type=int, default=None)
    b.add_argument("--fill-order", dest="fill_order", type=int, default=None)
    common(b)
    b.set_defaults(func=cmd_build)

    f = sub.add_parser("forecast", help="forecast from a saved ROM")
    f.add_argument("model")
    f.add_argument("--t", type=float, required=True)
    f.add_argument("--force", action="store_true")
    f.add_argument("--truth", help="dataset directory with a snapshot at t")
    f.add_argument("--out", required=True)
    common(f)
    f.set_defaults(func=cmd_forecast)

    h = sub.add_parser("horizon", help="print the forecast horizons of a model")
    h.add_argument("model")
    h.add_argument("--out")
    common(h)
    h.set_defaults(func=cmd_horizon)

    bn = sub.add_parser("bench", help="run a benchmark suite")
    bn.add_argument(
        "suite",
        choices=["burgers-sweep", "bubble", "galerkin-compare", "error-growth"],
    )
    bn.add_argument("--out", required=True)
    common(bn)
    bn.set_defaults(func=cmd_bench)

    a = sub.add_parser("adaptive", help="alternate Burgers solver and ROM")
    a.add_argument("--re", type=float, default=None)
    a.add_argument("--m", type=int, default=None)
    a.add_argument("--dt", type=float, default=None)
    a.add_argument("--t-start", dest="t_start", type=float, default=None)
    a.add_argument("--t-target", dest="t_target", type=float, default=None)
    a.add_argument("--alpha-pod", dest="alpha_pod", type=float, default=None)
    a.add_argument("--beta-pod", dest="beta_pod", type=float, default=None)
    a.add_argument("--beta-gpr-a", dest="beta_gpr_a", type=float, default=None)
    a.add_argument("--out", required=True)
    common(a)
    a.set_defaults(func=cmd_adaptive)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HorizonExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
