"""Shows that the benchmark's correctness checks are not vacuous.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload, an unperturbed forecast must pass the workload's own
``check_forecast``, and each perturbation of the forecast field or of a mode
coefficient (the mean of mode 0's GP, so the shift goes through the
program's own forecast path) must be caught.  Exits 0 when the baselines pass
and every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

from run import OUT, prepare


def main() -> int:
    prepare()
    import numpy as np

    from mbrom.data import FMT
    from mbrom.mls import CorrectionReport
    from spans import Tracer
    from workloads import BubbleFiles, Burgers1D, Disk2DMoving

    results = []

    def expect(label, errors, want_fail):
        ok = bool(errors) == want_fail
        note = errors[0] if errors else "passed"
        results.append(ok)
        verdict = ("caught" if want_fail else "baseline") if ok else "MISSED"
        print(f"{verdict:8s} {label}: {note}")

    def l2(v, w):
        return float(np.sqrt(np.sum(v * v * w)))

    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer(False)
    try:
        # burgers_1d
        wl = Burgers1D(work / "burgers", tracer)
        wl.setup(0)
        model = wl.build()
        t = 0.6
        fc = wl.forecast(model, t)
        w = wl.snaps.grid.quad_weights
        expect("burgers_1d unperturbed", wl.check_forecast(model, t, fc), False)
        expect("burgers_1d retained modes", wl.check_build(model), False)
        truth = wl.truth[t]
        expect("burgers_1d field + 0.5*truth",
               wl.check_forecast(model, t, dataclasses.replace(fc, field=fc.field + 0.5 * truth)),
               True)
        model.mode_models[0].y_mean += 0.5 * l2(truth, w)
        expect("burgers_1d mode-0 coefficient shifted",
               wl.check_forecast(model, t, wl.forecast(model, t)), True)
        model.basis = dataclasses.replace(model.basis, retained=3)
        expect("burgers_1d R=3", wl.check_build(model), True)

        # disk2d_moving
        wl = Disk2DMoving(work / "disk", tracer)
        wl.setup(0)
        model = wl.build()
        t = 64.0
        fc = wl.forecast(model, t)
        expect("disk2d_moving unperturbed", wl.check_forecast(model, t, fc), False)
        truth = wl.truth[t]
        fluid = wl.r >= fc.boundary_values["R"]
        scaled = fc.field.copy()
        scaled[fluid] *= 1.5
        expect("disk2d_moving fluid field x1.5",
               wl.check_forecast(model, t, dataclasses.replace(fc, field=scaled)), True)
        rows = fc.correction_report.rows
        worst = max(rows, key=lambda row: abs(row[2] - truth[row[0]]))
        reverted = fc.field.copy()
        reverted[worst[0]] = worst[2]
        expect("disk2d_moving worst corrected node reverted",
               wl.check_forecast(model, t, dataclasses.replace(fc, field=reverted)), True)
        dropped = dataclasses.replace(fc, correction_report=CorrectionReport(rows=rows[1:]))
        expect("disk2d_moving one corrected node dropped",
               wl.check_forecast(model, t, dropped), True)
        model.mode_models[0].y_mean += 0.5 * l2(truth * fluid, wl.snaps.grid.quad_weights)
        expect("disk2d_moving mode-0 coefficient shifted",
               wl.check_forecast(model, t, wl.forecast(model, t)), True)

        # bubble_files: the check reads the files the command line wrote
        wl = BubbleFiles(work / "bubble", tracer)
        wl.setup(0)
        t = 63.5
        wl.warm_up([t])
        model = wl.build()
        result = wl.forecast(model, t)
        expect("bubble_files unperturbed", wl.check_forecast(None, t, result), False)
        out = result[1]
        field_csv = out / "field.csv"
        mat = np.loadtxt(field_csv, delimiter=",")
        nudged = mat.copy()
        nudged[-1, -1] = np.nextafter(nudged[-1, -1], np.inf)
        np.savetxt(field_csv, nudged, fmt=FMT, delimiter=",")
        expect("bubble_files one node nudged by one ulp",
               wl.check_forecast(None, t, result), True)
        fluid = wl.r >= json.loads((out / "summary.json").read_text())["boundary_values"]["R"]
        scaled = mat.copy()
        scaled[fluid, -1] *= 1.5
        np.savetxt(field_csv, scaled, fmt=FMT, delimiter=",")
        errors = wl.check_forecast(None, t, result)
        expect("bubble_files fluid field x1.5 (beyond bit-identity)",
               [e for e in errors if "in-memory" not in e], True)
        mode0 = model[1] / "gpr" / "mode_0.json"
        gp = json.loads(mode0.read_text())
        gp["train_y"] = [y + 1e-9 for y in gp["train_y"]]
        mode0.write_text(json.dumps(gp))
        expect("bubble_files saved mode-0 coefficient shifted by 1e-9",
               wl.check_forecast(None, t, wl.forecast(model, t)), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missed = results.count(False)
    print(f"{len(results) - missed}/{len(results)} as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
