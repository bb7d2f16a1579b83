"""Command-line interface tests: in-process invocations, and the imports
of a fresh process."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbrom
import mbrom.benchmarks
from mbrom.benchmarks import BubbleConfig, bubble_snapshots, bubble_strain, burgers_snapshots
from mbrom.cli import _build_parser, _load_config, main
from mbrom.data import BoundaryTrack, SnapshotSet, load_snapshots, save_dataset
from mbrom.rom import build, load_rom_model, save_rom_model


def read_csv(path):
    return np.loadtxt(path, delimiter=",")


class TestGen:
    def test_burgers_dataset(self, tmp_path):
        out = tmp_path / "ds"
        rc = main([
            "gen", "burgers", "--re", "100", "--t1", "0.3", "--tm", "0.5",
            "--m", "20", "--nx", "201", "--out", str(out),
        ])
        assert rc == 0
        fields = read_csv(out / "fields.csv")
        assert fields.shape == (20, 201)
        meta = json.loads((out / "manifest.json").read_text())
        assert meta["fields"] == "fields.csv"

    def test_bubble_dataset_boundary_header(self, tmp_path):
        out = tmp_path / "ds"
        rc = main(["gen", "bubble", "--out", str(out)])
        assert rc == 0
        header = (out / "boundary.csv").read_text().splitlines()[0]
        assert header == "R"
        assert (out / "masks.csv").exists()

    def test_invalid_reynolds(self, tmp_path, capsys):
        rc = main(["gen", "burgers", "--re", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, key", [
        (["burgers", "--nr", "60", "--amplitude", "0.3"], None, "amplitude"),
        (["bubble", "--re", "5", "--nx", "7"], None, "nx"),
        (["burgers"], {"nr": 60}, "nr"),
        (["bubble"], {"re": 5}, "re"),
    ], ids=["burgers-flags", "bubble-flags", "burgers-config", "bubble-config"])
    def test_option_of_the_other_benchmark_refused(self, tmp_path, capsys, argv, config, key):
        benchmark = argv[0]
        other, reads = {
            "burgers": ("bubble", "m, nx, re, t1, tm"),
            "bubble": ("burgers", "amplitude, m, nr, omega, t1, tm"),
        }[benchmark]
        if config is not None:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfgfile)]
        out = tmp_path / "ds"
        assert main(["gen", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.strip() == (
            f"error: option {key!r} is a {other} option; gen {benchmark} reads {reads}"
        )


@pytest.fixture(scope="module")
def built_model(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    ds = base / "ds"
    model = base / "model"
    assert main([
        "gen", "burgers", "--re", "100", "--nx", "201", "--out", str(ds),
    ]) == 0
    assert main(["build", str(ds), "--out", str(model)]) == 0
    return ds, model


class TestBuild:
    def test_report_contents(self, built_model):
        _, model = built_model
        report = json.loads((model / "report.json").read_text())
        assert report["R"] == 2
        stars = [report["t_star_pod"], report["t_star_gpr_a"]]
        assert report["t_star"] == min(stars)
        assert len(report["mode_hyperparameters"]) == 2
        assert len(report["ric"]) == 20

    def test_rebuild_byte_identical(self, built_model, tmp_path):
        ds, model = built_model
        again = tmp_path / "model2"
        assert main(["build", str(ds), "--out", str(again)]) == 0
        assert (model / "report.json").read_bytes() == \
            (again / "report.json").read_bytes()

    def test_config_file_flag_precedence(self, built_model, tmp_path):
        ds, _ = built_model
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha_pod": 0.2}))
        out = tmp_path / "loose"
        assert main([
            "build", str(ds), "--out", str(out), "--config", str(cfgfile),
        ]) == 0
        loose = json.loads((out / "report.json").read_text())
        assert loose["R"] == 1  # config file applied
        out2 = tmp_path / "strict"
        assert main([
            "build", str(ds), "--out", str(out2), "--config", str(cfgfile),
            "--alpha-pod", "0.01",
        ]) == 0
        strict = json.loads((out2 / "report.json").read_text())
        assert strict["R"] == 2  # flag overrides the config file

    @pytest.mark.parametrize("key", ["alpha-pod", "seed", "fill-order"])
    def test_unknown_config_key_refused(self, built_model, tmp_path, capsys, key):
        # a misspelt option (dashes, not its dest), the retired seed key and
        # the removed fill-order option
        ds, _ = built_model
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha_pod": 0.2, key: 1}))
        out = tmp_path / "m"
        rc = main(["build", str(ds), "--out", str(out), "--config", str(cfgfile)])
        assert rc == 1
        err = capsys.readouterr().err
        assert repr(key) in err and str(cfgfile) in err
        assert not out.exists()

    @pytest.mark.parametrize("gen", [["burgers", "--nx", "201"], ["bubble"]])
    def test_no_flags_saves_the_library_default_model(self, tmp_path, gen):
        # an option no flag or config file sets takes the library's default
        ds, cli, lib = tmp_path / "ds", tmp_path / "cli", tmp_path / "lib"
        assert main(["gen", *gen, "--out", str(ds)]) == 0
        assert main(["build", str(ds), "--out", str(cli)]) == 0
        save_rom_model(build(load_snapshots(ds)), lib)

        def files(root):
            return {
                p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "report.json"  # the CLI's own
            }

        assert files(cli) == files(lib)


class TestConfigKeys:
    # every config key each subcommand reads: its options, by dest
    KEYS = {
        "gen": {"re", "nx", "nr", "amplitude", "omega", "t1", "tm", "m"},
        "build": {"alpha_pod", "beta_pod", "beta_gpr_a", "beta_gpr_gamma",
                  "mls_order"},
        "adaptive": {"re", "m", "dt", "t_start", "t_target", "alpha_pod",
                     "beta_pod", "beta_gpr_a"},
    }
    ARGV = {
        "gen": ["gen", "bubble"],
        "build": ["build", "ds"],
        "adaptive": ["adaptive"],
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_every_read_key_accepted(self, command, tmp_path):
        cfg = {key: 1.0 for key in self.KEYS[command]}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        args = _build_parser().parse_args(
            [*self.ARGV[command], "--out", "x", "--config", str(cfgfile)]
        )
        assert args.config_keys == self.KEYS[command]
        assert _load_config(args) == cfg

    def test_gen_reads_its_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nx": 51, "m": 4, "re": None}))  # null: unset
        out = tmp_path / "ds"
        assert main(["gen", "burgers", "--out", str(out), "--config", str(cfgfile)]) == 0
        assert read_csv(out / "fields.csv").shape == (4, 51)

    @pytest.mark.parametrize("command, key, value, kind", [
        ("gen", "re", [1], "a finite number"),
        ("gen", "m", 20.7, "an integer"),
        ("gen", "nr", "60", "a finite number"),
        ("build", "alpha_pod", "0.1", "a finite number"),
        ("build", "mls_order", True, "a finite number"),
        ("build", "beta_pod", {"value": 0.3}, "a finite number"),
        ("adaptive", "t_target", float("nan"), "a finite number"),
        ("adaptive", "m", 20.5, "an integer"),
        ("adaptive", "dt", False, "a finite number"),
    ], ids=["gen-list", "gen-fraction", "gen-string", "build-string", "build-true",
            "build-object", "adaptive-nan", "adaptive-fraction", "adaptive-false"])
    def test_value_that_is_not_a_number_refused(
        self, built_model, tmp_path, capsys, command, key, value, kind
    ):
        argv = {
            "gen": ["gen", "bubble"],
            "build": ["build", str(built_model[0])],
            "adaptive": ["adaptive"],
        }[command]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.strip() == (
            f"error: {cfgfile}: config key {key!r} must be {kind}, not {value!r}"
        )


class TestForecast:
    def test_with_truth(self, built_model, tmp_path):
        ds, model = built_model
        truth = tmp_path / "truth"
        assert main([
            "gen", "burgers", "--re", "100", "--nx", "201",
            "--t1", "0.6", "--tm", "0.7", "--m", "2", "--out", str(truth),
        ]) == 0
        out = tmp_path / "fc"
        rc = main([
            "forecast", str(model), "--t", "0.6", "--truth", str(truth),
            "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["relative_error"] <= 0.05
        field = read_csv(out / "field.csv")
        assert field.shape == (201, 2)

    def test_at_data_end_error_within_tail(self, built_model, tmp_path):
        ds, model = built_model
        truth = tmp_path / "truth_end"
        assert main([
            "gen", "burgers", "--re", "100", "--nx", "201",
            "--t1", "0.49", "--tm", "0.5", "--m", "2", "--out", str(truth),
        ]) == 0
        out = tmp_path / "fc_end"
        assert main([
            "forecast", str(model), "--t", "0.5", "--truth", str(truth),
            "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((model / "report.json").read_text())
        assert summary["relative_error"] <= report["rrms_tail"] + 1e-3

    def test_beyond_horizon_exit_code(self, built_model, tmp_path, capsys):
        _, model = built_model
        report = json.loads((model / "report.json").read_text())
        t_bad = report["t_star"] + 1.0
        rc = main([
            "forecast", str(model), "--t", str(t_bad),
            "--out", str(tmp_path / "nope"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "t*" in err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_time_refused(self, built_model, tmp_path, capsys, bad):
        _, model = built_model
        out = tmp_path / "bad"
        rc = main(["forecast", str(model), "--t", bad, "--force", "--out", str(out)])
        assert rc == 1
        assert f"query time {bad} is not finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_force_allows_it(self, built_model, tmp_path):
        _, model = built_model
        report = json.loads((model / "report.json").read_text())
        out = tmp_path / "forced"
        rc = main([
            "forecast", str(model), "--t", str(report["t_star"] + 0.1),
            "--force", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["forced"]


class TestRepeatedMain:
    """``main`` builds its parser once per process; nothing carries from one
    call to the next."""

    def test_error_then_forecasts_without_carried_flags(
        self, built_model, tmp_path, capsys
    ):
        ds, model = built_model
        report = json.loads((model / "report.json").read_text())
        t_beyond = str(report["t_star"] + 0.1)
        with pytest.raises(SystemExit) as exc:
            main(["forecast", str(model), "--t", "0.5", "--bogus"])
        assert exc.value.code == 2
        out = [tmp_path / f"fc{i}" for i in range(3)]
        assert main([
            "forecast", str(model), "--t", t_beyond, "--force", "--out", str(out[0]),
        ]) == 0
        assert json.loads((out[0] / "summary.json").read_text())["forced"]
        assert main([
            "forecast", str(model), "--t", "0.5", "--truth", str(ds), "--out", str(out[1]),
        ]) == 0
        assert "relative_error" in json.loads((out[1] / "summary.json").read_text())
        capsys.readouterr()
        # neither --force nor --truth carries over
        assert main(["forecast", str(model), "--t", t_beyond, "--out", str(out[2])]) == 2
        assert "t*" in capsys.readouterr().err
        assert main(["forecast", str(model), "--t", "0.5", "--out", str(out[2])]) == 0
        summary = json.loads((out[2] / "summary.json").read_text())
        assert "relative_error" not in summary and not summary["forced"]
        assert capsys.readouterr().out == (out[2] / "summary.json").read_text()


class TestCorruptModel:
    @pytest.mark.parametrize("name", ["pod/modes.csv", "mean.csv"])
    def test_non_numeric_entry_names_the_file(self, built_model, tmp_path, capsys, name):
        _, model = built_model
        bad = tmp_path / "model"
        shutil.copytree(model, bad)
        lines = (bad / name).read_text().splitlines(keepends=True)
        lines[1] = re.sub(r"^[^,\n]*", "x", lines[1])  # the row's first entry
        (bad / name).write_text("".join(lines))
        rc = main(["forecast", str(bad), "--t", "0.5", "--out", str(tmp_path / "fc")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{Path(name).name}: non-numeric entry at row 2" in err


class TestHorizon:
    def test_prints_minimum(self, built_model, capsys):
        _, model = built_model
        assert main(["horizon", str(model)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_star"] == min(
            payload["t_star_pod"], payload["t_star_gpr_a"]
        )


class TestBubbleFileFlow:
    def test_gen_build_forecast(self, tmp_path):
        ds = tmp_path / "ds"
        model = tmp_path / "model"
        out = tmp_path / "fc"
        assert main(["gen", "bubble", "--out", str(ds)]) == 0
        assert main(["build", str(ds), "--out", str(model)]) == 0
        report = json.loads((model / "report.json").read_text())
        assert report["t_star_gpr_gamma"] is not None
        rc = main([
            "forecast", str(model), "--t", "64.0", "--force", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["corrected_node_count"] > 0
        assert "R" in summary["boundary_values"]
        lines = (out / "correction_report.csv").read_text().splitlines()
        assert lines[0] == "node,h,before,after,lebesgue"
        assert len(lines) == summary["corrected_node_count"] + 1
        assert all(float(line.split(",")[4]) >= 1.0 for line in lines[1:])

    def test_no_file_holds_a_carriage_return(self, tmp_path):
        assert main(["gen", "bubble", "--out", str(tmp_path / "ds")]) == 0
        assert main(["build", str(tmp_path / "ds"), "--out", str(tmp_path / "model")]) == 0
        assert main(["forecast", str(tmp_path / "model"), "--t", "64.0", "--force",
                     "--out", str(tmp_path / "fc")]) == 0
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert {"boundary.csv", "correction_report.csv"} <= {p.name for p in written}
        assert [p.name for p in written if b"\r" in p.read_bytes()] == []

    def test_build_without_geometry_rule_exits_1(self, tmp_path, capsys):
        s, track = bubble_snapshots(BubbleConfig(nr=120), 51.0, 60.0, 10)
        two = BoundaryTrack(["R", "R2"], np.column_stack([track.values] * 2))
        save_dataset(SnapshotSet(s.grid, s.times, s.fields, s.masks, two), tmp_path / "ds")
        out = tmp_path / "model"
        assert main(["build", str(tmp_path / "ds"), "--out", str(out)]) == 1
        assert "no boundary geometry rule" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_includes_boundary(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        model = tmp_path / "model"
        assert main(["gen", "bubble", "--nr", "120", "--out", str(ds)]) == 0
        assert main(["build", str(ds), "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["horizon", str(model)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_star_gpr_gamma"] is not None
        assert payload["t_star"] == min(
            payload["t_star_pod"],
            payload["t_star_gpr_a"],
            payload["t_star_gpr_gamma"],
        )


class TestBench:
    def test_error_growth_monotone(self, tmp_path):
        out = tmp_path / "growth"
        assert main(["bench", "error-growth", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "error_growth.csv", delimiter=",", skiprows=1)
        assert rows.shape == (10, 3)
        assert np.all(np.diff(rows[:, 1]) >= -1e-12)
        assert np.all(np.diff(rows[:, 2]) >= -1e-12)

    def test_burgers_sweep_decreases_then_plateaus(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["bench", "burgers-sweep", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "burgers_sweep.csv", delimiter=",", skiprows=1)
        re100 = rows[rows[:, 0] == 100.0]
        errs = re100[np.argsort(re100[:, 1]), 2]
        assert errs[0] > errs[1] > errs[2]          # decreasing at low R
        plateau = errs[4:]
        assert plateau.max() / plateau.min() < 1.2  # flat once GP error wins

    def test_galerkin_compare_columns(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["bench", "galerkin-compare", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "galerkin_compare.csv", delimiter=",", skiprows=1)
        assert rows.shape == (4, 4)
        assert np.all(rows[:, 2] <= 0.25) and np.all(rows[:, 3] <= 0.25)

    def test_bubble_suite(self, tmp_path):
        out = tmp_path / "bubble"
        assert main(["bench", "bubble", "--out", str(out)]) == 0
        summary = json.loads((out / "bubble_summary.json").read_text())
        assert summary["corrected_node_count"] > 0
        assert summary["max_err_exposed_after"] < summary["max_err_exposed_before"]
        assert summary["rel_error_corrected"] <= 0.1
        fields = np.loadtxt(out / "bubble_fields.csv", delimiter=",", skiprows=1)
        assert fields.shape[1] == 4


class TestAdaptive:
    @pytest.mark.parametrize("flag, value", [
        ("--t-target", "nan"), ("--t-target", "inf"), ("--t-start", "inf"),
    ])
    def test_non_finite_time_exits_1(self, tmp_path, capsys, monkeypatch, flag, value):
        calls = []

        def solver(*args):
            calls.append(args)
            if len(calls) > 3:  # a loop that never ends fails here
                raise AssertionError("the solver was called 4 times")
            return burgers_snapshots(*args)

        monkeypatch.setattr(mbrom.benchmarks, "burgers_snapshots", solver)
        out = tmp_path / "adaptive"
        assert main(["adaptive", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        name = flag[2:].replace("-", "_")
        assert captured.err.strip() == f"error: {name} must be finite, got {value}"
        assert captured.out == "" and not out.exists() and calls == []

    def test_handoff_log(self, tmp_path):
        out = tmp_path / "adaptive"
        rc = main([
            "adaptive", "--re", "100", "--t-start", "0.3", "--t-target", "0.9",
            "--beta-gpr-a", "0.01", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "handoffs.csv").read_text().splitlines()
        assert lines[0].startswith("round,")
        rows = [line.split(",") for line in lines[1:]]
        stars = [float(r[3]) for r in rows]
        assert all(a < b for a, b in zip(stars, stars[1:])) or len(stars) == 1
        errs = [float(r[6]) for r in rows]
        assert all(e <= 0.1 for e in errs)


@pytest.fixture(scope="module")
def bubble_model(tmp_path_factory):
    base = tmp_path_factory.mktemp("bubble")
    assert main(["gen", "bubble", "--out", str(base / "ds")]) == 0
    assert main(["build", str(base / "ds"), "--out", str(base / "model")]) == 0
    return base / "model"


class TestForecastTruthMovingBoundary:
    @pytest.mark.parametrize("gen, message", [
        (["--nr", "200", "--t1", "51", "--tm", "69", "--m", "19"],
         "truth grid has 200 nodes, the model grid 270"),
        # a longer window moves the generated grid's inner edge by ~1.7e-4
        (["--t1", "51", "--tm", "69", "--m", "19"],
         "truth grid differs from the model grid: largest coordinate offset 0.000172"),
        ([], "truth dataset has no snapshot at t=64"),  # the model's own window
    ], ids=["nodes", "offset", "time"])
    def test_refused_truth_writes_nothing(self, bubble_model, tmp_path, capsys, gen, message):
        truth = tmp_path / "truth"
        assert main(["gen", "bubble", *gen, "--out", str(truth)]) == 0
        capsys.readouterr()
        out = tmp_path / "fc"
        rc = main([
            "forecast", str(bubble_model), "--t", "64", "--force",
            "--truth", str(truth), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.strip() == f"error: {message}"
        assert not out.exists()

    def test_error_over_predicted_fluid_region(self, bubble_model, tmp_path):
        cfg = BubbleConfig()
        same_grid = BubbleConfig(r_min=cfg.inner_edge(51.0, 60.0))
        snaps, _ = bubble_snapshots(same_grid, 51.0, 69.0, 19)
        save_dataset(snaps, tmp_path / "truth")
        out = tmp_path / "fc"
        assert main([
            "forecast", str(bubble_model), "--t", "64", "--force",
            "--truth", str(tmp_path / "truth"), "--out", str(out),
        ]) == 0
        err = json.loads((out / "summary.json").read_text())["relative_error"]

        fluid = load_rom_model(bubble_model).fluid_mask_at(64.0)
        field = read_csv(out / "field.csv")
        r, u = field[fluid, 0], field[fluid, 1]
        w = snaps.grid.quad_weights[fluid]
        truth = snaps.fields[13][fluid]
        expected = np.sqrt(np.sum(w * (u - truth) ** 2) / np.sum(w * truth**2))
        assert err == pytest.approx(expected, rel=1e-9)
        assert err < 0.05  # over the whole grid, cavity nodes push it to ~0.58
        np.testing.assert_allclose(truth, bubble_strain(r, 64.0, cfg), rtol=1e-12)


class TestModelFile:
    """model.json reads each config dataclass by its field names."""

    def forecast(self, model, out):
        return main(["forecast", str(model), "--t", "64", "--force", "--out", str(out)])

    def edited_model(self, bubble_model, tmp_path, edit):
        model = tmp_path / "model"
        shutil.copytree(bubble_model, model)
        path = model / "model.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        return model

    def test_extra_keys_are_ignored(self, bubble_model, tmp_path):
        def edit(meta):
            meta["comment"] = "ignored"
            meta["mls"]["comment"] = "ignored"

        model = self.edited_model(bubble_model, tmp_path, edit)
        assert self.forecast(bubble_model, tmp_path / "a") == 0
        assert self.forecast(model, tmp_path / "b") == 0
        for name in ("summary.json", "field.csv", "correction_report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("key", ["beta_pod", "beta_gpr_gamma", "mls.max_growths"])
    def test_missing_key_exits_1(self, bubble_model, tmp_path, capsys, key):
        *block, name = key.split(".")

        def edit(meta):
            owner = meta[block[0]] if block else meta
            del owner[name]

        model = self.edited_model(bubble_model, tmp_path, edit)
        assert self.forecast(model, tmp_path / "fc") == 1
        assert capsys.readouterr().err.strip() == f"error: '{name}'"

    @pytest.mark.parametrize("name", [
        "mean.csv", "window_all_fluid.csv", "pod/modes.csv", "pod/eigenvalues.csv",
        "gpr/mode_1.json",
    ])
    def test_file_of_the_wrong_size_exits_1(self, bubble_model, tmp_path, capsys, name):
        model = tmp_path / "model"
        shutil.copytree(bubble_model, model)
        path = model / name
        lines = path.read_text().splitlines(keepends=True)
        if name == "pod/modes.csv":  # the last column dropped
            lines = [line.rsplit(",", 1)[0] + "\n" for line in lines]
            expected = "pod/modes.csv holds 269 columns and grid.csv 270 nodes"
        elif name == "pod/eigenvalues.csv":
            lines = lines[:1]
            expected = "pod/eigenvalues.csv holds 1 entries and gpr/mode_0.json 10 training times"
        elif name == "gpr/mode_1.json":  # the last training point dropped
            gp = json.loads(path.read_text())
            gp["train_t"], gp["train_y"] = gp["train_t"][:-1], gp["train_y"][:-1]
            lines = [json.dumps(gp)]
            expected = "pod/eigenvalues.csv holds 10 entries and gpr/mode_1.json 9 training times"
        else:
            lines = lines[:-1]
            expected = f"{name} holds 269 entries and grid.csv 270 nodes"
        path.write_text("".join(lines))
        for command, args in (("horizon", []), ("forecast", ["--t", "64", "--force"])):
            out = tmp_path / command
            assert main([command, str(model), *args, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.strip() == f"error: {model}: {expected}"

    @pytest.mark.parametrize("key, value, message", [
        ("t_scale", None, "missing key 't_scale'"),
        ("t_scale", 0, "key 't_scale' must be > 0, not 0"),
        ("theta_f", -1.0, "key 'theta_f' must be > 0, not -1.0"),
        ("theta_l", float("inf"), "key 'theta_l' must be a finite number, not inf"),
        ("noise_var", "0", "key 'noise_var' must be a finite number, not '0'"),
        ("train_y", "nan", "key 'train_y' must be a list of finite numbers"),
        ("train_t", 51.0, "key 'train_t' must be a list of finite numbers"),
        ("noise_var", -1.0, "noise variance must be nonnegative"),
        ("train_y", "short", "training inputs and outputs differ in length"),
    ], ids=["missing", "zero-scale", "negative-scale", "inf", "string", "nan-entry", "number",
            "negative-noise", "unequal-lengths"])
    def test_malformed_gp_file_names_file_and_key(
        self, bubble_model, tmp_path, capsys, key, value, message
    ):
        model = tmp_path / "model"
        shutil.copytree(bubble_model, model)
        path = model / "gpr" / "mode_0.json"
        gp = json.loads(path.read_text())
        if value is None:
            del gp[key]
        elif value == "nan":
            gp[key][3] = float("nan")
        elif value == "short":
            gp[key].pop()
        else:
            gp[key] = value
        path.write_text(json.dumps(gp))
        out = tmp_path / "fc"
        assert self.forecast(model, out) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        # the whole of stderr: no RuntimeWarning is printed before the error
        assert captured.err.strip() == f"error: {path}: {message}"

    @pytest.mark.parametrize("command", ["horizon", "forecast"])
    @pytest.mark.parametrize("geometry", [None, "deleted", "ellipse"])
    def test_moving_model_without_geometry_rule_exits_1(
        self, bubble_model, tmp_path, capsys, command, geometry
    ):
        def edit(meta):
            if geometry == "deleted":
                del meta["boundary_geometry"]
            else:
                meta["boundary_geometry"] = geometry

        model = self.edited_model(bubble_model, tmp_path, edit)
        out = tmp_path / "out"
        args = ["--t", "64", "--force"] if command == "forecast" else []
        assert main([command, str(model), *args, "--out", str(out)]) == 1
        shown = None if geometry == "deleted" else geometry
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            f"error: {model / 'model.json'}: a moving-boundary model needs the "
            f"'radius' boundary geometry rule, and it has {shown!r}: a forecast "
            "could not find the exposed nodes"
        )
        assert not out.exists()


def test_cli_import_leaves_out_the_tree_module():
    # the k-d tree (scipy.spatial) loads only when a correction runs
    src = str(Path(mbrom.__file__).resolve().parents[1])
    code = "import sys, mbrom.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
