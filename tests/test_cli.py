import hashlib
import json
import math
import os
import platform
import time
import warnings

import numpy as np
import pytest

from banach_sgd import save_matrix_csv
from banach_sgd.cli import build_config, main, parse_config, run_experiment


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, **overrides):
    """A small integral config with overrides; an override of None removes the key."""
    cfg = {
        "preset": "integral",
        "n": 120,
        "n_batches": 12,
        "epochs": 4,
        "seeds": 2,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return path


class TestParseConfig:
    def test_minimal_integral_preset_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"preset": "integral"}')
        cfg = parse_config(path)
        assert cfg.n == 1000
        assert cfg.n_batches == 100
        assert cfg.solver.epochs == 250
        assert cfg.solver.x_space.r == 2.0 and cfg.solver.x_space.p == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"preset": "integral", "learning_rate": 3}')
        assert main(["solve", str(path)]) == 1

    def test_r_x_one_rejected_with_range_message(self, tmp_path, capsys):
        path = _write_config(tmp_path, r_x=1.0)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "1 < r" in err

    def test_non_divisible_batches_rejected(self, tmp_path):
        path = _write_config(tmp_path, n=100, n_batches=7)
        assert main(["solve", str(path)]) == 1

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"preset": "integral",,}')
        assert main(["solve", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 3

    def test_q_requires_generalized_kaczmarz(self, tmp_path):
        path = _write_config(tmp_path, q=1.1)
        assert main(["solve", str(path)]) == 1

    def test_unknown_schedule_kind(self, tmp_path):
        path = _write_config(tmp_path, schedule={"kind": "warmup"})
        assert main(["solve", str(path)]) == 1

    def test_zero_epochs_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        import banach_sgd.cli as cli

        def no_build(cfg):
            raise AssertionError("problem built despite an invalid epoch count")

        monkeypatch.setattr(cli, "_build_problem", no_build)
        assert main(["solve", str(_write_config(tmp_path, epochs=0))]) == 1
        assert main(["solve", str(_write_config(tmp_path)), "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err


class TestMalformedSpecs:
    @pytest.mark.parametrize("flags,config", [
        (["--noise", "notjson"], None),
        (["--noise", '{"kind": "gaussian"}'], None),
        (["--noise", '{"kind": "gaussian", "sigma": "abc"}'], None),
        (None, {"schedule": {"kind": "constant"}}),
        (None, {"epochs": "abc"}),
        (None, {"r_x": "x"}),
        (None, {"preset": ["ct"]}),
        (None, {"noise": {"kind": ["gaussian"]}}),
        (None, {"method": "momentum"}),
        (None, {"schedule": {"kind": "polynomial", "mu0": 1, "beta": 0.2}}),
        (None, {"preset": "ct", "method": "momentum"}),
        (None, {"noise": {"kind": "gaussian", "sigma": 0.01}, "stopping": {"kind": "a_priori", "beta": 2}}),
        (None, {"noise": {"kind": "gaussian", "sigma": 0.01}, "stopping": {"kind": "a_priori", "theta": 1.5}}),
        (None, {"stopping": {"kind": "a_priori"}}),
        (None, {"midpoint_columns": "no"}),
        (None, {"n": 100.7, "n_batches": 10}),
        (None, {"seeds": True}),
        (["--epochs", "2.9"], None),
        (["--method", "momentum"], None),
        (None, {"grid_side": 32}),
        (None, {"preset": "ct", "n": 50}),
        (["--grid-side", "32"], None),
        (None, {"out_dir": ["x"]}),
        (None, {"preset": "custom", "n": None, "matrix_csv": ["A.csv"], "data_csv": "y.csv"}),
        (None, {"n": 20, "n_batches": 10}),
        (None, {"preset": "ct", "n": None, "grid_side": 8}),
        (None, {"seed": -1}),
        (None, {"noise": {"kind": "gaussian", "sigma": 0.01, "seed": -3}}),
        (None, {"noise": {"kind": "gaussian", "sigma": 0.01}, "stopping": {"kind": "a_priori", "beta": math.nan}}),
        (None, {"schedule": {"kind": "slow_decay", "scale": math.nan}}),
        (None, {"schedule": {"kind": "constant", "mu0": math.inf}}),
        (None, {"noise": {"kind": "gaussian", "sigma": math.inf}}),
        (None, {"noise": {"kind": "gaussian", "sigma": math.nan}}),
        (["--noise", "[" * 100_000 + "]" * 100_000], None),
        (None, {"schedule": {"kind": "constant", "mu0": 10**400}}),
        (None, {"noise": {"kind": "impulse", "pct": 0.1, "lo": -1e308, "hi": 1e308}}),
        (None, {"preset": "ct", "n": None, "grid_side": 64.5}),
        (None, {"schedule": {"kind": "slow_decay", "scale": None}}),
    ])
    def test_exit_1_with_one_line_before_any_work(self, tmp_path, monkeypatch, capsys, flags, config):
        import banach_sgd.cli as cli

        def no_build(cfg):
            raise AssertionError("problem built despite a malformed spec")

        monkeypatch.setattr(cli, "_build_problem", no_build)
        if flags is not None:
            argv = ["experiment", "integral", "--n", "100", "--n-batches", "10", *flags]
        else:
            argv = ["solve", str(_write_config(tmp_path, **config))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unreadable_config_file_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys):
        import banach_sgd.cli as cli

        def no_build(cfg):
            raise AssertionError("problem built from an unreadable config")

        monkeypatch.setattr(cli, "_build_problem", no_build)
        path = tmp_path / "config.json"
        for text in ('{"n": 100, "out_dir": "caf\xe9"}'.encode("latin-1"), b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(text)
            assert main(["solve", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize("flags,config", [
        (["--noise", "[" * 100_000 + "]" * 100_000], None),
        (None, {"schedule": {"kind": "constant", "mu0": 10**400}}),
        (None, {"seed": 10**400}),
        (None, {"method": "x" * 10_000}),
    ])
    def test_rejected_value_is_echoed_short(self, tmp_path, capsys, flags, config):
        if flags is not None:
            argv = ["experiment", "integral", "--n", "100", "--n-batches", "10", *flags]
        else:
            argv = ["solve", str(_write_config(tmp_path, **config))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200

    def test_overflowing_impulse_noise_exits_1_naming_the_model(self, tmp_path, capsys):
        noise = '{"kind": "impulse", "pct": 0.5, "lo": 1e307, "hi": 1.5e308}'
        argv = ["experiment", "integral", "--n", "100", "--n-batches", "10", "--epochs", "1", "--noise", noise,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1  # a RuntimeWarning would fail the test run
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "ImpulseNoise(pct=0.5, lo=1e+307, hi=1.5e+308" in err
        assert not (tmp_path / "out").exists()


class TestSpecReader:
    """Every kind-tagged spec takes its keys and defaults from the dataclass its kind builds."""

    SUPPLIED = {"n_batches", "p_conj"}  # fields the config itself gives a schedule

    @pytest.mark.parametrize("section,table", [
        ("noise", "_NOISE_KINDS"), ("schedule", "_SCHEDULE_KINDS"), ("stopping", "_STOPPING_KINDS"),
    ])
    def test_each_kind_takes_its_class_fields_but_the_supplied_ones(self, section, table):
        import dataclasses

        import banach_sgd.cli as cli

        for kind, cls in getattr(cli, table).items():
            names = {f.name for f in dataclasses.fields(cls)} if cls else set()
            spec = {"kind": kind, **dict.fromkeys(names, 0), "extra": 0}
            with pytest.raises(cli.ConfigurationError) as info:
                build_config({section: spec})
            unknown = ", ".join(sorted(names & self.SUPPLIED | {"extra"}))
            assert str(info.value) == f"unknown key(s) in {section}: {unknown}", kind

    @pytest.mark.parametrize("key", sorted(SUPPLIED))
    def test_supplied_field_in_a_slow_decay_spec_exits_1_as_unknown(self, tmp_path, capsys, key):
        path = _write_config(tmp_path, schedule={"kind": "slow_decay", "scale": 0.1, key: 4})
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: unknown key(s) in schedule: {key}\n"

    def test_a_priori_stop_keeps_the_dataclass_defaults(self):
        from banach_sgd import APrioriStop

        cfg = build_config({"noise": {"kind": "gaussian", "sigma": 0.01}, "stopping": {"kind": "a_priori"}})
        assert cfg.solver.stopping == APrioriStop(0.0, 0.9)


class TestExperimentConfigReader:
    """The top-level section is built by the same field reader as every other section."""

    @pytest.mark.parametrize("key", ["n", "midpoint_columns", "out_dir"])
    def test_null_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, key):
        import banach_sgd.cli as cli

        def no_build(cfg):
            raise AssertionError(f"problem built despite a null {key}")

        monkeypatch.setattr(cli, "_build_problem", no_build)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 100, "n_batches": 10, "out_dir": str(tmp_path / "out"), key: None}))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config.{key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("raw,message", [
        ({"preset": "custom", "matrix_csv": 5}, "config.matrix_csv must be a string; got 5"),
        ({"preset": "custom", "matrix_csv": "A.csv", "data_csv": ["y"]}, "config.data_csv must be a string; got ['y']"),
        ({"preset": "custom", "matrix_csv": "A.csv"}, "custom preset needs signal_csv or data_csv"),
        ({"midpoint_columns": 1}, "config.midpoint_columns must be true or false; got 1"),
        ({"n": "100"}, "config.n must be an integer; got '100'"),
        ({"n": 30}, "need n >= 40 to resolve the signal plateaus, got 30"),
        ({"method": 5}, "config.method must be a string; got 5"),
    ])
    def test_rejected_value_is_named(self, raw, message):
        from banach_sgd import ConfigurationError

        with pytest.raises(ConfigurationError) as info:
            build_config(raw)
        assert str(info.value) == message

    def test_fields_a_preset_does_not_read_are_none(self):
        cfg = build_config({"n": 100.0, "n_batches": 10})
        assert type(cfg.n) is int and cfg.n == 100 and cfg.midpoint_columns is True and cfg.matrix_csv is None
        cfg = build_config({"preset": "ct"})
        assert cfg.n is None and cfg.midpoint_columns is None and cfg.geometry.grid_side == 64
        cfg = build_config({"preset": "custom", "matrix_csv": "A.csv", "data_csv": "y.csv", "signal_csv": None})
        assert (cfg.matrix_csv, cfg.signal_csv, cfg.data_csv, cfg.n, cfg.geometry) == ("A.csv", None, "y.csv", None, None)


class TestSingleFlagPath:
    def test_experiment_flags_match_the_equivalent_solve(self, tmp_path):
        flags = ["--n", "120", "--n-batches", "12", "--rx", "1.5", "--p", "1.5", "--epochs", "3", "--seeds", "2"]
        assert main(["experiment", "integral", *flags, "--out-dir", str(tmp_path / "exp")]) == 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"preset": "integral", "n": 120, "n_batches": 12, "r_x": 1.5, "p": 1.5,
                                    "epochs": 3, "seeds": 2, "out_dir": str(tmp_path / "solve")}))
        assert main(["solve", str(path)]) == 0
        configs = []
        for out in (tmp_path / "exp", tmp_path / "solve"):
            config = json.loads((out / "manifest.json").read_text())["config"]
            config.pop("out_dir")
            configs.append(config)
        assert configs[0] == configs[1]
        traces = [{p.name: _digest(p) for p in out.glob("trace_seed*.csv")}
                  for out in (tmp_path / "exp", tmp_path / "solve")]
        assert len(traces[0]) == 2 and traces[0] == traces[1]

    def test_integral_valued_number_text_reads_as_the_integer(self, tmp_path):
        flags = ["--n-batches", "10", "--epochs", "3", "--seeds", "2"]
        for n in ("100", "100.0"):
            assert main(["experiment", "integral", "--n", n, *flags, "--out-dir", str(tmp_path / n)]) == 0
        traces = [{p.name: _digest(p) for p in (tmp_path / n).glob("trace_seed*.csv")} for n in ("100", "100.0")]
        assert len(traces[0]) == 2 and traces[0] == traces[1]

    def test_every_flag_sets_preset_or_a_config_key(self):
        import argparse

        import banach_sgd.cli as cli

        keys = {"preset", *cli._COMMON_DEFAULTS}.union(*cli._PRESET_DEFAULTS.values())
        commands = next(a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name in ("solve", "experiment"):
            dests = {a.dest for a in commands.choices[name]._actions
                     if a.option_strings and not isinstance(a, argparse._HelpAction)}
            assert dests and dests <= keys, (name, dests - keys)


class TestRunExperiment:
    def test_integral_artifact_set(self, tmp_path):
        path = _write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out = tmp_path / "out"
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == [
            "reconstruction.csv",
            "trace_mean.csv",
            "trace_seed0000.csv",
            "trace_seed0001.csv",
        ]
        assert (out / "plot.svg").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = _write_config(tmp_path, noise={"kind": "impulse", "pct": 0.05, "seed": 3})
        assert main(["solve", str(path)]) == 0
        out = tmp_path / "out"
        first = {p.name: _digest(p) for p in out.iterdir() if p.suffix != ".json"}
        assert main(["solve", str(path)]) == 0
        second = {p.name: _digest(p) for p in out.iterdir() if p.suffix != ".json"}
        assert first == second

    def test_trace_row_count_is_epochs_plus_one(self, tmp_path):
        path = _write_config(tmp_path, epochs=7)
        assert main(["solve", str(path)]) == 0
        for trace in (tmp_path / "out").glob("trace_seed*.csv"):
            lines = trace.read_text().splitlines()
            assert len(lines) == 7 + 2  # header + epochs 0..7

    def test_ct_preset_writes_pgm_of_grid_shape(self, tmp_path):
        cfg = build_config(
            {
                "preset": "ct",
                "grid_side": 16,
                "n_angles": 10,
                "n_detectors": 12,
                "n_batches": 10,
                "epochs": 2,
                "out_dir": str(tmp_path / "ct"),
            }
        )
        assert run_experiment(cfg) == 0
        pgm = (tmp_path / "ct" / "reconstruction.pgm").read_bytes()
        header, rest = pgm.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"16 16"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert len(pixels) == 16 * 16

    def test_ct_preset_never_densifies_the_operator(self, tmp_path, monkeypatch):
        from banach_sgd import CsrMatrix

        def refuse(self):
            raise AssertionError("the CT path built a dense matrix")

        monkeypatch.setattr(CsrMatrix, "toarray", refuse)
        code = main(["experiment", "ct", "--grid-side", "32", "--n-angles", "30", "--n-detectors", "46",
                     "--n-batches", "30", "--rx", "1.1", "--ry", "1.1", "--q", "1.1", "--epochs", "2",
                     "--out-dir", str(tmp_path / "ct")])
        assert code == 0
        assert (tmp_path / "ct" / "reconstruction.pgm").exists()

    def test_manifest_contents(self, tmp_path):
        path = _write_config(tmp_path, noise={"kind": "gaussian", "sigma": 0.01, "seed": 1})
        assert main(["solve", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["rng"].startswith("Philox")
        assert manifest["realized_noise_level"] > 0
        assert manifest["config"]["n"] == 120
        assert "timestamp" in manifest

    def test_manifest_records_each_blocks_norm_estimate(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        blocks = manifest["operator_norm_blocks"]
        assert len(blocks) == 12
        assert all(b["converged"] and b["iterations"] >= 1 for b in blocks)
        assert max(b["value"] for b in blocks) == manifest["operator_norm_estimate"]
        assert "warning" not in capsys.readouterr().err

    def test_unconverged_norm_estimate_warns_of_a_lower_bound(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "A.csv", np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.999], [0.0, 0.0]]))
        save_matrix_csv(tmp_path / "x.csv", np.ones((1, 2)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "preset": "custom", "matrix_csv": str(tmp_path / "A.csv"), "signal_csv": str(tmp_path / "x.csv"),
            "n_batches": 2, "epochs": 1, "out_dir": str(tmp_path / "out"),
        }))
        assert main(["solve", str(path)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning:")
        assert "block(s) 0 did not" in err and "lower bound" in err
        blocks = json.loads((tmp_path / "out" / "manifest.json").read_text())["operator_norm_blocks"]
        assert [b["converged"] for b in blocks] == [False, True]
        assert blocks[0]["iterations"] == 500

    def test_manifest_records_phase_timings_and_environment(self, tmp_path):
        path = _write_config(tmp_path)
        start = time.perf_counter()
        assert main(["solve", str(path)]) == 0
        wall = time.perf_counter() - start
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert set(timings) == {"problem", "norm_estimate", "solve", "write"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings.values()) <= wall
        env = manifest["environment"]
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()

    def test_manifest_records_each_seeds_work(self, tmp_path):
        assert main(["solve", str(_write_config(tmp_path))]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        work = manifest["work"]
        assert len(work) == len(manifest["seeds"]) == 2
        for w in work:
            assert (w["steps"], w["snapshots"], sum(w["draws"]), len(w["draws"])) == (48, 5, 48, 12)
            assert w["step_s"] > 0 and w["snapshot_s"] > 0
        assert sum(w["step_s"] + w["snapshot_s"] for w in work) <= manifest["timings_s"]["solve"]

    def test_ensemble_statistics_near_the_float_range_stay_finite(self, tmp_path):
        # The sign-indefinite operator at the default L_max scale grows the
        # objective ~1e38-fold per epoch without diverging; numpy's std of two
        # such samples overflows in the squares.
        path = _write_config(tmp_path, n=200, n_batches=20, epochs=5, midpoint_columns=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == 0
        trace = tmp_path / "out" / "trace_mean.csv"
        header = trace.read_text().splitlines()[0].split(",")
        rows = np.loadtxt(trace, delimiter=",", skiprows=1)
        assert rows[-1, header.index("objective_mean")] > 1e180
        for j, name in enumerate(header):
            if name.endswith("_se"):
                assert np.isfinite(rows[:, j]).all(), name

    def test_seed_ensemble_traces_match_single_seed_runs(self, tmp_path):
        path = _write_config(tmp_path, seeds=3)
        assert main(["solve", str(path)]) == 0
        ensemble = {p.name: _digest(p) for p in (tmp_path / "out").glob("trace_seed*.csv")}
        singles = {}
        for s in range(3):
            out = tmp_path / f"single{s}"
            assert main(["solve", str(path), "--seeds", "1", "--seed", str(s), "--out-dir", str(out)]) == 0
            singles.update({p.name: _digest(p) for p in out.glob("trace_seed*.csv")})
        assert len(ensemble) == 3
        assert ensemble == singles

    def test_landweber_runs_once_for_every_seed(self, tmp_path, monkeypatch):
        import banach_sgd.solver as solver

        calls = []
        solve = solver.run
        monkeypatch.setattr(solver, "run", lambda *a, **k: calls.append(a) or solve(*a, **k))
        path = _write_config(tmp_path, n=200, n_batches=20, epochs=200, method="landweber", seeds=3,
                             schedule={"kind": "slow_decay", "scale": 0.05})
        assert main(["solve", str(path)]) == 0
        assert len(calls) == 1
        out = tmp_path / "out"
        assert len({_digest(out / f"trace_seed{s:04d}.csv") for s in range(3)}) == 1
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [0, 1, 2]
        header = (out / "trace_mean.csv").read_text().splitlines()[0].split(",")
        rows = np.loadtxt(out / "trace_mean.csv", delimiter=",", skiprows=1)
        for j, name in enumerate(header):  # equal samples have no spread
            if name.endswith("_se"):
                assert (rows[:, j] == 0).all(), name

    def test_overflowing_step_exits_2_naming_the_iteration(self, tmp_path, capsys):
        path = _write_config(tmp_path, n=100, n_batches=10, r_x=1.5, p=1.5,
                             schedule={"kind": "constant", "mu0": 1e200})
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "iteration 1" in err and "mu = 1e+200" in err
        assert "Traceback" not in err

    def test_a_priori_stopping_runs(self, tmp_path):
        path = _write_config(
            tmp_path,
            noise={"kind": "gaussian", "sigma": 0.01, "seed": 2},
            stopping={"kind": "a_priori", "beta": 0.25, "theta": 0.9},
            schedule={"kind": "polynomial", "mu0": 1.0, "beta": 0.75},
            epochs=1,
        )
        assert main(["solve", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["realized_noise_level"] > 0

    def test_noise_free_a_priori_stop_exits_before_the_norm_estimate(self, tmp_path, monkeypatch, capsys):
        import banach_sgd.cli as cli

        calls = []
        estimate = cli.block_norms
        monkeypatch.setattr(cli, "block_norms", lambda *a, **k: calls.append(a) or estimate(*a, **k))
        path = _write_config(tmp_path, noise={"kind": "gaussian", "sigma": 0}, stopping={"kind": "a_priori"})
        assert main(["solve", str(path)]) == 1
        assert "delta = 0" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestCustomPreset:
    def test_matrix_and_signal(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=31))
        A = rng.normal(size=(12, 6))
        x = rng.normal(size=6)
        save_matrix_csv(tmp_path / "A.csv", A)
        save_matrix_csv(tmp_path / "x.csv", x.reshape(1, -1))
        cfg = build_config(
            {
                "preset": "custom",
                "matrix_csv": str(tmp_path / "A.csv"),
                "signal_csv": str(tmp_path / "x.csv"),
                "n_batches": 4,
                "epochs": 3,
                "out_dir": str(tmp_path / "out"),
            }
        )
        assert run_experiment(cfg) == 0
        assert (tmp_path / "out" / "reconstruction.csv").exists()

    def test_data_csv_is_the_data_and_signal_csv_the_reference(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=41))
        A = rng.normal(size=(12, 6))
        x = rng.normal(size=6)
        save_matrix_csv(tmp_path / "A.csv", A)
        save_matrix_csv(tmp_path / "x.csv", x.reshape(1, -1))
        save_matrix_csv(tmp_path / "y.csv", (100.0 * (A @ x) + 5.0)[:, None])
        signal, data = {"signal_csv": str(tmp_path / "x.csv")}, {"data_csv": str(tmp_path / "y.csv")}
        traces = {}
        for name, files in {"both": {**signal, **data}, "data": data, "signal": signal}.items():
            cfg = build_config({
                "preset": "custom", "matrix_csv": str(tmp_path / "A.csv"), "n_batches": 4, "epochs": 3,
                "schedule": {"kind": "constant", "mu0": 0.01}, "out_dir": str(tmp_path / name), **files,
            })
            assert run_experiment(cfg) == 0
            traces[name] = np.loadtxt(tmp_path / name / "trace_seed0000.csv", delimiter=",", skiprows=1)
        objective_residual_step = [1, 2, 6]
        np.testing.assert_array_equal(traces["both"][:, objective_residual_step],
                                      traces["data"][:, objective_residual_step])
        assert not np.array_equal(traces["both"][:, 1:3], traces["signal"][:, 1:3])
        assert np.isfinite(traces["both"][:, 3:6]).all()  # the signal is the reference for the error columns

    def test_non_finite_data_is_a_validation_error(self, tmp_path):
        save_matrix_csv(tmp_path / "A.csv", np.eye(4))
        (tmp_path / "y.csv").write_text("1\nnan\n2\n3\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "preset": "custom", "matrix_csv": str(tmp_path / "A.csv"),
            "data_csv": str(tmp_path / "y.csv"), "n_batches": 2, "epochs": 2,
            "schedule": {"kind": "constant", "mu0": 0.5}, "out_dir": str(tmp_path / "out"),
        }))
        assert main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("text", [b"1,2\n3,oops\n", b"1,2\n3\n", b"", b"1,\xe9\n"])
    def test_unparsable_matrix_csv_exits_3(self, tmp_path, text):
        (tmp_path / "A.csv").write_bytes(text)
        save_matrix_csv(tmp_path / "y.csv", np.ones((2, 1)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "preset": "custom", "matrix_csv": str(tmp_path / "A.csv"),
            "data_csv": str(tmp_path / "y.csv"), "out_dir": str(tmp_path / "out"),
        }))
        assert main(["solve", str(path)]) == 3

    def test_custom_without_matrix_rejected(self, tmp_path):
        assert main(["solve", str(_write_config(tmp_path, preset="custom"))]) == 1


class TestNormEstimate:
    def test_diagonal_matrix(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "m.csv", np.diag([3.0, 1.0]))
        assert main(["norm-estimate", str(tmp_path / "m.csv"), "--rx", "2", "--ry", "2"]) == 0
        out = capsys.readouterr().out
        assert "norm estimate: 3" in out
        assert "iterations:" in out
        assert "starts: 1" in out

    def test_sign_indefinite_matrix_runs_every_start(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "m.csv", np.diag([3.0, -1.0]))
        assert main(["norm-estimate", str(tmp_path / "m.csv")]) == 0
        assert "starts: 8" in capsys.readouterr().out

    def test_max_iter_flag_reported(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(key=37))
        save_matrix_csv(tmp_path / "m.csv", rng.normal(size=(6, 5)))
        assert main(["norm-estimate", str(tmp_path / "m.csv"), "--tol", "0", "--max-iter", "4"]) == 0
        assert "max-iterations-reached" in capsys.readouterr().out

    def test_no_iterations_exits_1(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "m.csv", np.diag([3.0, 1.0]))
        assert main(["norm-estimate", str(tmp_path / "m.csv"), "--max-iter", "0"]) == 1
        assert "max_iter" in capsys.readouterr().err

    def test_malformed_csv_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        assert main(["norm-estimate", str(bad)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["norm-estimate", str(tmp_path / "none.csv")]) == 3
