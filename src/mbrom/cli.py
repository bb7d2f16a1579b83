"""Command-line front end.

Subcommands: ``gen`` (benchmark datasets), ``build`` (ROM construction),
``forecast``, ``horizon``, ``bench`` (result-table suites) and ``adaptive``
(solver/ROM alternation on the Burgers closed form).  For ``gen``, ``build``
and ``adaptive``, flag values win over the optional JSON config file
(``--config``), whose keys are the subcommand's option names (``alpha_pod``
for ``--alpha-pod``); any other key is an error.  An option set by neither
is not passed on, so the library's own default applies: the dataclasses
``Thresholds``, ``MlsConfig``, ``BurgersConfig`` and ``BubbleConfig``.
``gen`` refuses an option of the other benchmark.  ``build`` refuses
moving-boundary data that it cannot forecast: no geometry rule (more than
one boundary parameter), or no node fluid in every snapshot.  Exit codes:
0 success, 1 input or validation error, 2 forecast beyond the certified
horizon without --force.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import benchmarks as bench_mod
from . import pod as pod_mod
from .data import (
    FMT,
    _read_json,
    inner_product,
    load_snapshots,
    save_dataset,
    write_json,
    write_matrix,
)
from .galerkin import assemble_operators, integrate
from .gpr import GprStack, train_many
from .mls import CorrectionReport, MlsConfig
from .rom import (
    HorizonExceededError,
    Thresholds,
    adaptive_loop,
    build,
    forecast,
    load_rom_model,
    relative_error,
    save_rom_model,
)

__all__ = ["main"]


# The fixture windows (t1, tM, M): what ``gen`` writes unless told otherwise,
# and what the bench suites build from.
_BURGERS_WINDOW = (0.3, 0.5, 20)
_BUBBLE_WINDOW = (51.0, 60.0, 10)

# the options that set one benchmark's config, which ``gen`` refuses for the other
_GEN_OPTIONS = {"burgers": ("nx", "re"), "bubble": ("amplitude", "nr", "omega")}

# integer options, which a config file may give as floats (20.0)
_INTS = frozenset({"nx", "nr", "m", "mls_order"})


def _resolve(args, config: dict, key: str, default=None):
    """The option's flag, else its config-file value, else ``default``."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    return int(value) if value is not None and key in _INTS else value


def _given(args, config: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the options that a flag or the config file sets.

    ``keys`` are passed under their own name; ``renamed`` maps a library
    parameter to the option that sets it.  Unset options are left out, so
    the library's default applies.
    """
    params = {key: key for key in keys} | renamed
    values = {param: _resolve(args, config, key) for param, key in params.items()}
    return {param: v for param, v in values.items() if v is not None}


def _window(args, config: dict, default: tuple) -> tuple:
    """(t1, tM, M) from ``--t1``, ``--tm`` and ``--m``, else ``default``."""
    return tuple(_resolve(args, config, k, d) for k, d in zip(("t1", "tm", "m"), default))


def _load_config(args) -> dict:
    """The ``--config`` file's object.  A key that is not one of the
    subcommand's options is an error, and so is a value that is not a finite
    number (null leaves the option unset) or, for an integer option, not
    integral."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - args.config_keys)
    if unknown:
        raise ValueError(
            f"{path}: unknown config key {unknown[0]!r}; "
            f"{args.command} reads {', '.join(sorted(args.config_keys))}"
        )
    for key, value in cfg.items():
        if value is None or type(value) is int:  # a bool is not an int here
            continue
        if type(value) is not float or not math.isfinite(value):
            raise ValueError(f"{path}: config key {key!r} must be a finite number, not {value!r}")
        if key in _INTS and not value.is_integer():
            raise ValueError(f"{path}: config key {key!r} must be an integer, not {value!r}")
    return cfg


def _thresholds(args, config) -> Thresholds:
    return Thresholds(
        **_given(args, config, "alpha_pod", "beta_pod", "beta_gpr_a", "beta_gpr_gamma")
    )


def _fluid_error(pred, truth, fluid, grid) -> float:
    """``relative_error`` over the predicted fluid region (the whole grid
    when ``fluid`` is None): a moving-boundary forecast is scored there."""
    fluid = True if fluid is None else fluid
    return relative_error(np.where(fluid, pred, 0.0), np.where(fluid, truth, 0.0), grid)


def _t_stars(model) -> dict:
    """The three horizons' t* (the boundary one None without boundary GPs)
    and their minimum."""
    stars = {f"t_star_{name}": t for name, t in model.t_stars().items()}
    return {"t_star_gpr_gamma": None, **stars, "t_star": model.t_star}


def _horizons(model) -> dict:
    """``_t_stars`` and the binding criterion."""
    return {**_t_stars(model), "binding": model.binding_component()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    config = _load_config(args)
    (other,) = set(_GEN_OPTIONS) - {args.benchmark}
    for key in _GEN_OPTIONS[other]:
        if _resolve(args, config, key) is not None:
            reads = sorted(args.config_keys - set(_GEN_OPTIONS[other]))
            raise ValueError(
                f"option {key!r} is a {other} option; "
                f"gen {args.benchmark} reads {', '.join(reads)}"
            )
    out = Path(args.out)
    if args.benchmark == "burgers":
        cfg = bench_mod.BurgersConfig(**_given(args, config, "nx", reynolds="re"))
        window = _window(args, config, _BURGERS_WINDOW)
        snaps = bench_mod.burgers_snapshots(cfg, *window)
    else:
        cfg = bench_mod.BubbleConfig(**_given(args, config, "amplitude", "omega", "nr"))
        window = _window(args, config, _BUBBLE_WINDOW)
        snaps, _ = bench_mod.bubble_snapshots(cfg, *window)
    manifest = save_dataset(snaps, out)
    print(f"wrote {manifest.parent}")
    return 0


def cmd_build(args) -> int:
    config = _load_config(args)
    thresholds = _thresholds(args, config)
    mls = _given(args, config, order="mls_order")
    snaps = load_snapshots(args.dataset)
    model = build(
        snaps,
        thresholds=thresholds,
        mls_cfg=MlsConfig(**mls) if mls else None,
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
    }
    write_json(out / "report.json", report)
    print(f"R={report['R']}  t*={report['t_star']:.6g}  ({report['binding']})")
    return 0


def _write_correction_report(path: Path, report: CorrectionReport) -> None:
    """One line per corrected node: node, h, before, after and its Lebesgue
    constant.  A node index prints as an integer under ``FMT``."""
    mat = np.column_stack([np.reshape(report.rows, (-1, 4)), report.lebesgue])
    write_matrix(path, mat, header="node,h,before,after,lebesgue")


def cmd_forecast(args) -> int:
    model = load_rom_model(args.model)
    fc = forecast(model, args.t, force=args.force)
    truth = None  # checked before any file is written
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
        truth = truth_snaps.fields[idx]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "field.csv", np.column_stack([model.grid.coords, fc.field]))
    summary = {
        "t_query": fc.t_query,
        **_t_stars(model),
        "sigma_weighted": fc.sigma_weighted,
        "eps_pod_tail": fc.eps_pod_tail,
        "eps_mls": fc.eps_mls,
        "forced": fc.forced,
        "corrected_node_count": (
            int(fc.corrected_nodes.size) if fc.corrected_nodes is not None else 0
        ),
        "boundary_values": fc.boundary_values,
    }
    if truth is not None:
        summary["relative_error"] = _fluid_error(fc.field, truth, fc.fluid_mask, model.grid)
    if fc.correction_report is not None and fc.correction_report.rows:
        _write_correction_report(out / "correction_report.csv", fc.correction_report)
    print(write_json(out / "summary.json", summary))
    return 0


def cmd_horizon(args) -> int:
    print(write_json(args.out or None, _horizons(load_rom_model(args.model))))
    return 0


# ---------------------------------------------------------------------------
# bench suites


def _burgers(re: float):
    cfg = bench_mod.BurgersConfig(reynolds=re)
    snaps = bench_mod.burgers_snapshots(cfg, *_BURGERS_WINDOW)
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
    write_matrix(out / "burgers_sweep.csv", np.array(rows), header="re,r,rel_error")


def _bench_error_growth(out: Path) -> None:
    cfg, snaps, _ = _burgers(500.0)
    model = build(snaps)
    x = snaps.grid.coords[:, 0]
    rows = []
    for dt_star in np.linspace(0.03, 0.3, 10):
        tq = 0.5 + dt_star
        fc = forecast(model, tq, force=True)
        diff = bench_mod.burgers_exact(x, tq, cfg) - fc.field
        eps = float(np.sqrt(inner_product(diff, diff, snaps.grid)))
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
    write_matrix(
        out / "galerkin_compare.csv", np.array(rows), header="re,r,err_gpr,err_galerkin"
    )


def _bench_bubble(out: Path) -> None:
    cfg = bench_mod.BubbleConfig()
    snaps, _ = bench_mod.bubble_snapshots(cfg, *_BUBBLE_WINDOW)
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
        _write_correction_report(out / "bubble_correction_report.csv", fc.correction_report)
    exp = fc.corrected_nodes
    err_b = float(np.abs(uncorrected - truth)[exp].max()) if exp.size else 0.0
    err_a = float(np.abs(fc.field - truth)[exp].max()) if exp.size else 0.0
    summary = {
        "t_query": t_query,
        "t_star": model.t_star,
        "forced": fc.forced,
        "corrected_node_count": int(exp.size),
        "max_err_exposed_before": err_b,
        "max_err_exposed_after": err_a,
        "rel_error_uncorrected": _fluid_error(
            uncorrected, truth, fc.fluid_mask, model.grid
        ),
        "rel_error_corrected": _fluid_error(fc.field, truth, fc.fluid_mask, model.grid),
        "boundary_values": fc.boundary_values,
    }
    write_json(out / "bubble_summary.json", summary)


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
    # the first solver window starts and is sized as the fixture window
    t1, _, m = _BURGERS_WINDOW
    m = _resolve(args, config, "m", m)
    dt = _resolve(args, config, "dt", 0.01)
    t_start = _resolve(args, config, "t_start", t1)
    t_target = _resolve(args, config, "t_target", 1.2)
    cfg = bench_mod.BurgersConfig(**_given(args, config, reynolds="re"))

    def solver(state, t0, n):
        return bench_mod.burgers_snapshots(cfg, t0, t0 + (n - 1) * dt, n)

    thresholds = _thresholds(args, config)
    forecasts, log = adaptive_loop(solver, m, thresholds, t_target, t_start)
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

    def add_config(sp):
        # the file may set each option added before --config, keyed by its dest
        keys = {a.dest for a in sp._actions if a.option_strings} - {"help", "out"}
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
        sp.set_defaults(config_keys=frozenset(keys))

    def add_seed(sp):
        # accepted and ignored (GP training is deterministic); it stays
        # because the benchmark (perfbench/workloads.py) passes --seed 0
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
    add_config(g)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a ROM from a dataset directory")
    b.add_argument("dataset")
    b.add_argument("--out", required=True)
    b.add_argument("--alpha-pod", dest="alpha_pod", type=float, default=None)
    b.add_argument("--beta-pod", dest="beta_pod", type=float, default=None)
    b.add_argument("--beta-gpr-a", dest="beta_gpr_a", type=float, default=None)
    b.add_argument("--beta-gpr-gamma", dest="beta_gpr_gamma", type=float, default=None)
    b.add_argument("--mls-order", dest="mls_order", type=int, default=None)
    add_config(b)
    add_seed(b)
    b.set_defaults(func=cmd_build)

    f = sub.add_parser("forecast", help="forecast from a saved ROM")
    f.add_argument("model")
    f.add_argument("--t", type=float, required=True)
    f.add_argument("--force", action="store_true")
    f.add_argument("--truth", help="dataset directory with a snapshot at t")
    f.add_argument("--out", required=True)
    add_seed(f)
    f.set_defaults(func=cmd_forecast)

    h = sub.add_parser("horizon", help="print the forecast horizons of a model")
    h.add_argument("model")
    h.add_argument("--out")
    h.set_defaults(func=cmd_horizon)

    bn = sub.add_parser("bench", help="run a benchmark suite")
    bn.add_argument(
        "suite",
        choices=["burgers-sweep", "bubble", "galerkin-compare", "error-growth"],
    )
    bn.add_argument("--out", required=True)
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
    add_config(a)
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
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        # a malformed JSON file raises json.JSONDecodeError, a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
