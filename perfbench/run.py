"""Benchmark of mbrom: ROM build, forecast and the file workflow.

Run from the repository root:

    python3 perfbench/run.py --workload burgers_1d --seed 1 --seconds 40 --trace 0

One process, one closed loop: the caller issues each build or forecast after
the previous one returns.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Progress and the traced run's layer shares go to standard error.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("burgers_1d", "disk2d_moving", "bubble_files")
BLAS_THREADS = 1  # pinned before numpy loads; see README.md
BUILD_SHARE = 0.5  # share of the measured window given to builds

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "forecast_ms": "ms",
    "forecast_ms_tail": "ms",
    "forecasts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "gpr.train.s": "s",
    "gpr.train.calls": "count",
    "gpr.nlml.calls": "count",
    "gpr.horizon.ms": "ms",
    "gpr.horizon.predict_calls": "count",
    "gpr.predict.us": "us",
    "gpr.predict.calls_per_forecast": "count",
    "pod.reconstruct.us": "us",
    "data.fill_occluded.s": "s",
    "data.fill_occluded.nodes": "count",
    "mls.correct_field.ms": "ms",
    "mls.corrected_nodes": "count",
    "mls.radius_growths": "count",
    "mls.uncorrected_nodes": "count",
    "pod.decompose.ms": "ms",
    "pod.retained": "count",
    "data.load_snapshots.ms": "ms",
    "data.load_snapshots.bytes": "bytes",
    "rom.save_rom_model.ms": "ms",
    "rom.save_rom_model.bytes": "bytes",
    "rom.load_rom_model.ms": "ms",
    "rom.build.self_ms": "ms",
    "rom.forecast.self_us": "us",
    "cli.build.self_ms": "ms",
    "cli.forecast.self_ms": "ms",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Attempted and failed operations, and how many outputs were wrong.

    An operation fails when it raises or when its output fails a check; a
    failed check also makes the run's result incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, errors: list[str], wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.wrong += wrong
        for e in errors[:3]:
            log(f"FAILED: {e}")

    def check(self, op, *args) -> None:
        try:
            errors = op(*args)
        except Exception as exc:  # a check that cannot read the output fails it
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.record(errors, wrong=bool(errors))


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the operation failed; it is counted, not fatal
        out = exc
    return out, time.perf_counter() - t0


def measure(wl, queries, seconds: float, tracer, tally: Tally) -> dict:
    """Whole rounds of set-ups, builds and passes over the query times.

    Rounds repeat while another round of the last one's length still fits
    in the window, and at least ``wl.min_rounds`` times; interleaving the
    three kinds of operation spreads each one's samples over the window.
    """
    per_round = wl.query_rounds * len(queries)
    tail_pct = tail_percentile(per_round)
    setup_times, build_times, forecast_times, tails = [], [], [], []
    batch, model, last, rounds = 0.0, None, 0.0, 0
    start = time.perf_counter()
    # set-ups are spread over the round's slots (before the builds, then
    # before each forecast pass), so their samples span the window too
    slots = wl.query_rounds + 1
    setups_at = [i * slots // wl.setups_per_round for i in range(wl.setups_per_round)]

    def setups(slot):
        tracer.phase = "setup"
        for _ in range(setups_at.count(slot)):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup(len(setup_times) + 1)
            setup_times.append(time.perf_counter() - t0)

    while rounds < wl.min_rounds or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        rounds += 1
        setups(0)
        for _ in range(wl.builds_per_round):
            tracer.phase = "build"
            out, dt = timed(wl.build)
            build_times.append(dt)
            tracer.phase = "check"
            if isinstance(out, Exception):
                tally.record([f"build raised {type(out).__name__}: {out}"])
            else:
                tally.check(wl.check_build, out)
                model = out

        round_times = []
        for k in range(wl.query_rounds):
            setups(k + 1)
            tracer.phase = "forecast"
            outs = []
            b0 = time.perf_counter()
            for t in queries:
                if model is None:
                    outs.append(RuntimeError("every build so far failed"))
                    continue
                out, dt = timed(wl.forecast, model, t)
                round_times.append(dt)
                outs.append(out)
            batch += time.perf_counter() - b0
            tracer.phase = "check"
            for t, out in zip(queries, outs):
                if isinstance(out, Exception):
                    tally.record([f"t={t!r}: forecast raised {type(out).__name__}: {out}"])
                else:
                    tally.check(wl.check_forecast, model, t, out)
        if round_times:
            tails.append(_percentile(sorted(round_times), tail_pct))
        forecast_times += round_times
        last = time.perf_counter() - r0
    tracer.phase = "done"
    if not forecast_times:
        raise RuntimeError("no forecast ran: every build failed")
    return {
        "setup_s": statistics.median(setup_times),
        "build_s": statistics.median(build_times),
        "forecast_ms": 1e3 * statistics.median(forecast_times),
        "forecast_ms_tail": 1e3 * statistics.median(tails),
        "forecasts_per_s": len(forecast_times) / batch,
        "rounds": rounds,
        "n_forecasts": len(forecast_times),
        "tail_pct": tail_pct,
    }


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return next(p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0 - 1e-9)


def _percentile(sorted_values, pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def prepare() -> None:
    """Pin BLAS threads (before numpy loads) and put ``src/`` on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare()
    from spans import Tracer
    from workloads import WORKLOADS, query_times

    tracer = Tracer(trace)
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        tracer.install()
        wl = WORKLOADS[workload](work, tracer)
        queries = query_times(seed, *wl.window, wl.round_size)

        tracer.phase = "warmup"
        wl.setup(0)
        wl.warm_up(queries)
        res = measure(wl, queries, seconds, tracer, tally)
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(
            f"{workload} seed={seed}: {res['rounds']} rounds, "
            f"{res['n_forecasts']} forecasts (p{res['tail_pct']:g} tail per round), "
            + ", ".join(f"{k}={res[k]:.6g}" for k in END_TO_END_UNITS)
        )
        if trace:
            layer, shares = tracer.metrics(wl.build_op, wl.forecast_op)
            for phase, share in shares.items():
                log(f"{phase} self-time shares: " + ", ".join(
                    f"{k} {100 * v:.1f}%" for k, v in sorted(share.items(), key=lambda kv: -kv[1])
                ))
            tracer.write(OUT / f"trace-{workload}-seed{seed}.csv.gz")
            metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        else:
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "mbrom" / "__init__.py").is_file():
        log(f"error: mbrom sources not found at {SRC}")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
