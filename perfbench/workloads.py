"""The three benchmark workloads.

Each workload generates its inputs, writes them as a dataset and reads them
back (the set-up), then issues builds and forecasts the way its user would.
``build``/``forecast`` are the timed operations; the ``check_*`` methods run
outside the timed region and return failure messages.  Calls go through
module attributes (``mrom.build``, ``mcli.main``) so the traced run sees
them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import mbrom.benchmarks as mbench
import mbrom.cli as mcli
import mbrom.data as mdata
import mbrom.rom as mrom

import checks
from disk2d import DiskConfig, disk_field, disk_snapshots, node_radius


def query_times(seed: int, lo: float, hi: float, k: int) -> list[float]:
    """k times in (lo, hi], one uniform draw per equal stratum, in seeded order.

    Stratifying keeps the spread of forecast work (e.g. exposed-node counts,
    which grow with t) nearly the same for every seed.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(lo, hi, k + 1)
    t = edges[:-1] + np.diff(edges) * (1.0 - rng.random(k))
    return t[rng.permutation(k)].tolist()


class Workload:
    """A workload provides ``setup(index)``, ``warm_up(queries)``, the timed
    ``build()`` and ``forecast(model, t)``, and ``check_build`` /
    ``check_forecast``.  One round is ``setups_per_round`` set-ups,
    ``builds_per_round`` builds, and ``query_rounds`` passes over the
    ``round_size`` seeded query times; a run makes at least ``min_rounds``
    rounds."""

    name: str
    window: tuple[float, float]  # forecast query interval (lo, hi]
    round_size = 20
    setups_per_round = 1
    builds_per_round = 1
    query_rounds: int
    min_rounds = 1
    build_op = "rom.build"
    forecast_op = "rom.forecast"

    def __init__(self, work: Path, tracer):
        self.work = work
        self.tracer = tracer
        self.truth = {}  # check-side closed-form fields, by query time


class Burgers1D(Workload):
    """Burgers Re=500 closed form: all fluid, so fill and MLS never run."""

    name = "burgers_1d"
    window = (0.5, 0.66)
    setups_per_round = 2
    query_rounds = 50

    def setup(self, index):
        self.cfg = mbench.BurgersConfig(reynolds=500.0)
        snaps = mbench.burgers_snapshots(self.cfg, 0.3, 0.5, 20)
        d = self.work / f"dataset{index}"
        mdata.save_dataset(snaps, d)
        self.snaps = mdata.load_snapshots(d)
        self.x = self.snaps.grid.coords[:, 0]

    def warm_up(self, queries):
        model = self.build()
        for t in queries:
            self.forecast(model, t)

    def build(self):
        return mrom.build(self.snaps)

    def check_build(self, model):
        return checks.check_retained(model.basis.retained)

    def forecast(self, model, t):
        return mrom.forecast(model, t)

    def check_forecast(self, model, t, fc):
        if t not in self.truth:
            self.truth[t] = mbench.burgers_exact(self.x, t, self.cfg)
        return checks.check_burgers_forecast(
            fc.field, self.truth[t], self.snaps.grid.quad_weights, t
        )


class Disk2DMoving(Workload):
    """100x100 pulsating disk: occluded fill dominates build, MLS the forecast."""

    name = "disk2d_moving"
    window = (60.0, 65.0)
    setups_per_round = 4
    query_rounds = 2
    min_rounds = 2

    def setup(self, index):
        self.cfg = DiskConfig()
        snaps = disk_snapshots(self.cfg, 51.0, 60.0, 10)
        d = self.work / f"dataset{index}"
        mdata.save_dataset(snaps, d)
        self.snaps = mdata.load_snapshots(d)
        self.r = node_radius(self.snaps.grid)

    def warm_up(self, queries):
        # a coarse copy of the fixture runs every build stage at a fraction
        # of the full build's cost
        small = disk_snapshots(DiskConfig(n_side=30), 51.0, 60.0, 10)
        model = mrom.build(small)
        mrom.forecast(model, queries[0], force=True)

    def build(self):
        return mrom.build(self.snaps)

    def check_build(self, model):
        return []

    def forecast(self, model, t):
        return mrom.forecast(model, t, force=True)

    def check_forecast(self, model, t, fc):
        if t not in self.truth:
            self.truth[t] = disk_field(self.r, t, self.cfg)
        rows = fc.correction_report.rows
        return checks.check_moving_forecast(
            fc.field,
            self.truth[t],
            self.snaps.grid.quad_weights,
            self.r >= fc.boundary_values["R"],
            self.snaps.fluid_throughout(),
            [row[0] for row in rows],
            [row[2] for row in rows],
            t,
        )


class BubbleFiles(Workload):
    """Shrinking-cavity fixture through the ``mbrom`` command line, in-process.

    The only workload that writes and reads models and forecast files; its
    fill and correction run at N=270, where brute force is cheap.
    """

    name = "bubble_files"
    window = (60.0, 64.0)
    setups_per_round = 3
    query_rounds = 2
    build_op = "cli.build"
    forecast_op = "cli.forecast"

    def __init__(self, work: Path, tracer):
        super().__init__(work, tracer)
        self.outputs = itertools.count()

    def setup(self, index):
        self.cfg = mbench.BubbleConfig()
        snaps, _ = mbench.bubble_snapshots(self.cfg, 51.0, 60.0, 10)
        self.dataset = self.work / f"dataset{index}"
        mdata.save_dataset(snaps, self.dataset)
        self.snaps = mdata.load_snapshots(self.dataset)
        self.r = self.snaps.grid.coords[:, 0]

    def _main(self, span, argv):
        with self.tracer.span(span), contextlib.redirect_stdout(io.StringIO()):
            return mcli.main(argv)

    def _fresh(self, kind: str) -> Path:
        # every command writes a new directory: rewriting files in place
        # makes ext4 flush them on close (auto_da_alloc), which adds disk
        # waits to the timings
        return self.work / kind / str(next(self.outputs))

    def warm_up(self, queries):
        # the in-memory model the reloaded-model forecasts are compared with
        self.memory_model = mrom.build(self.snaps, seed=0)
        model = self.build()
        for t in queries[:3]:
            self.forecast(model, t)

    def build(self):
        out = self._fresh("model")
        argv = ["build", str(self.dataset), "--out", str(out), "--seed", "0"]
        return self._main("cli.build", argv), out

    def check_build(self, result):
        code, model_dir = result
        if code != 0:
            return [f"mbrom build exited {code}"]
        with open(model_dir / "report.json") as fh:
            report = json.load(fh)
        errors = []
        if report["R"] != self.memory_model.basis.retained:
            errors.append(f"report R={report['R']} differs from the in-memory model")
        if report["t_star"] != self.memory_model.t_star:
            errors.append("report t_star differs from the in-memory model")
        return errors

    def forecast(self, model, t):
        code, model_dir = model
        out = self._fresh("forecast")
        argv = ["forecast", str(model_dir), "--t", repr(float(t)), "--force",
                "--out", str(out), "--seed", "0"]
        return self._main("cli.forecast", argv), out

    def check_forecast(self, model, t, result):
        code, out = result
        if code != 0:
            return [f"t={t!r}: mbrom forecast exited {code}"]
        field = np.loadtxt(out / "field.csv", delimiter=",")[:, -1]
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        report = out / "correction_report.csv"
        rows = (
            np.atleast_2d(np.loadtxt(report, delimiter=",", skiprows=1))
            if report.exists()
            else np.empty((0, 4))
        )
        if t not in self.truth:
            fc = mrom.forecast(self.memory_model, t, force=True)
            self.truth[t] = (fc.field, mbench.bubble_strain(self.r, t, self.cfg))
        reference, truth = self.truth[t]
        return checks.check_identical(field, reference, t) + checks.check_moving_forecast(
            field,
            truth,
            self.snaps.grid.quad_weights,
            self.r >= summary["boundary_values"]["R"],
            self.snaps.fluid_throughout(),
            rows[:, 0].astype(int),
            rows[:, 2],
            t,
        )


WORKLOADS = {w.name: w for w in (Burgers1D, Disk2DMoving, BubbleFiles)}
