"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the calls into each mbrom module.  The wrappers
are installed where the caller looks the name up (``mbrom.rom.train`` for
the training calls inside ``build``, ``mbrom.gpr.nlml`` for the objective
inside ``train``, and so on), so the library itself is not edited.  Each
span is a row ``[name, start, end, parent, phase, info]``; ``info`` holds
what a layer's counts are later derived from.  With tracing off, ``span``
is a shared no-op context and nothing is patched.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import time
from collections import defaultdict
from pathlib import Path

import mbrom.cli
import mbrom.data
import mbrom.gpr
import mbrom.pod
import mbrom.rom

_NULL = contextlib.nullcontext()


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _fill_info(args, out):
    return int(sum((~m.fluid).sum() for m in args[0].masks))


def _mls_info(args, out):
    _, exposed, _, grid, cfg = args[:5]
    report = out[1]
    h0 = cfg.kernel_len if cfg.kernel_len is not None else 3.0 * grid.spacing()
    growths = sum(round(math.log(h / h0) / math.log(1.5)) for _, h, _, _ in report.rows)
    return len(report.rows), growths, len(report.uncorrected)


# (owner, attribute, span name, info) for every patched call site
PATCHES = (
    (mbrom.rom, "build", "rom.build", lambda a, o: o.basis.retained),
    (mbrom.cli, "build", "rom.build", lambda a, o: o.basis.retained),
    (mbrom.rom, "forecast", "rom.forecast", None),
    (mbrom.cli, "forecast", "rom.forecast", None),
    (mbrom.rom, "train", "gpr.train", None),
    (mbrom.gpr, "nlml", "gpr.nlml", None),
    (mbrom.gpr.GprModel, "predict", "gpr.predict", None),
    (mbrom.rom, "gpr_horizon_modes", "gpr.horizon", None),
    (mbrom.rom, "gpr_horizon_boundary", "gpr.horizon", None),
    (mbrom.rom, "fill_occluded", "data.fill_occluded", _fill_info),
    (mbrom.rom, "correct_field", "mls.correct_field", _mls_info),
    (mbrom.pod, "decompose", "pod.decompose", None),
    (mbrom.pod, "reconstruct", "pod.reconstruct", None),
    (mbrom.data, "load_snapshots", "data.load_snapshots", lambda a, o: str(a[0])),
    (mbrom.cli, "load_snapshots", "data.load_snapshots", lambda a, o: str(a[0])),
    (mbrom.cli, "save_rom_model", "rom.save_rom_model", lambda a, o: _dir_bytes(a[1])),
    (mbrom.cli, "load_rom_model", "rom.load_rom_model", None),
)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = "setup"
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def _span(self, name):
        row = self._open(name)
        try:
            yield row
        finally:
            self._close(row)

    def span(self, name: str):
        """Context for a span opened by the benchmark's own code."""
        return self._span(name) if self.enabled else _NULL

    def _open(self, name):
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        return row

    def _close(self, row):
        row[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            row = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(row)
            if info is not None:
                row[5] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if not self.enabled:
            return
        for owner, attr, name, info in PATCHES:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, info))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                out[row[3]] -= row[2] - row[1]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,phase\n")
            for i, (name, t0, t1, parent, phase, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{phase}\n")

    def metrics(self, build_op: str, forecast_op: str) -> tuple[dict, dict]:
        """Per-layer metrics, plus each layer's share of the top-level ops.

        ``build_op``/``forecast_op`` name the span of one build or forecast
        as the workload issues it.  Times and counts are per measured build
        or forecast, so whole rounds of the same queries give the same
        counts however long the run.
        """
        self_t = self.self_times()
        spans = self.spans
        n_build = sum(1 for r in spans if r[0] == build_op and r[4] == "build")
        n_fc = sum(1 for r in spans if r[0] == forecast_op and r[4] == "forecast")
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        infos = defaultdict(list)
        horizon_predicts = 0
        for i, (name, t0, t1, parent, phase, info) in enumerate(spans):
            key = (name, phase)
            incl[key] += t1 - t0
            own[key] += self_t[i]
            calls[key] += 1
            if info is not None:
                infos[key].append(info)
            if name == "gpr.predict" and parent >= 0 and spans[parent][0] == "gpr.horizon":
                horizon_predicts += phase == "build"

        def per(total, n, scale=1.0):
            return total * scale / n if n else 0.0

        def per_call(name, scale):
            n = sum(v for (k, _), v in calls.items() if k == name)
            return per(sum(v for (k, _), v in incl.items() if k == name), n, scale)

        def info_per_call(name, size=lambda v: v):
            vals = [x for (k, _), v in infos.items() if k == name for x in v]
            return per(sum(size(x) for x in vals), len(vals))

        shares = {}
        for phase, op in (("build", build_op), ("forecast", forecast_op)):
            total = incl[(op, phase)]
            shares[phase] = {
                name: own[(name, p)] / total
                for (name, p) in sorted(own)
                if p == phase and total > 0
            }
        B, F = ("build",), ("forecast",)
        mls = infos[("mls.correct_field", "forecast")]
        retained = infos[("rom.build", "build")]
        m = {
            "gpr.train.s": per(incl[("gpr.train", *B)], n_build),
            "gpr.train.calls": per(calls[("gpr.train", *B)], n_build),
            "gpr.nlml.calls": per(calls[("gpr.nlml", *B)], n_build),
            "gpr.horizon.ms": per(incl[("gpr.horizon", *B)], n_build, 1e3),
            "gpr.horizon.predict_calls": per(horizon_predicts, n_build),
            "gpr.predict.us": per(
                incl[("gpr.predict", *F)], calls[("gpr.predict", *F)], 1e6
            ),
            "gpr.predict.calls_per_forecast": per(calls[("gpr.predict", *F)], n_fc),
            "pod.reconstruct.us": per(incl[("pod.reconstruct", *F)], n_fc, 1e6),
            "data.fill_occluded.s": per(incl[("data.fill_occluded", *B)], n_build),
            "data.fill_occluded.nodes": per(
                sum(infos[("data.fill_occluded", *B)]), n_build
            ),
            "mls.correct_field.ms": per(incl[("mls.correct_field", *F)], n_fc, 1e3),
            "mls.corrected_nodes": per(sum(x[0] for x in mls), n_fc),
            "mls.radius_growths": per(sum(x[1] for x in mls), n_fc),
            "mls.uncorrected_nodes": per(sum(x[2] for x in mls), n_fc),
            "pod.decompose.ms": per(incl[("pod.decompose", *B)], n_build, 1e3),
            "pod.retained": float(retained[-1]) if retained else 0.0,
            "data.load_snapshots.ms": per_call("data.load_snapshots", 1e3),
            "data.load_snapshots.bytes": info_per_call("data.load_snapshots", _dir_bytes),
            "rom.save_rom_model.ms": per_call("rom.save_rom_model", 1e3),
            "rom.save_rom_model.bytes": info_per_call("rom.save_rom_model"),
            "rom.load_rom_model.ms": per_call("rom.load_rom_model", 1e3),
            "rom.build.self_ms": per(own[("rom.build", *B)], n_build, 1e3),
            "rom.forecast.self_us": per(own[("rom.forecast", *F)], n_fc, 1e6),
            "cli.build.self_ms": per(own[("cli.build", *B)], n_build, 1e3),
            "cli.forecast.self_ms": per(own[("cli.forecast", *F)], n_fc, 1e3),
        }
        return m, shares
