"""Config parsing, experiment artifacts, plotting, CLI dispatch."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdeopt
from pdeopt import analysis, optimizers, pde_lab
from pdeopt.cli import build_parser, main
from pdeopt.config import (
    KEY_SPECS,
    KINDS,
    ConfigError,
    ExperimentConfig,
    emit_manifest,
    parse_config,
    parse_manifest,
    write_manifest,
)
from pdeopt.experiments import _optimizer_config, run_experiment
from pdeopt.grid import GridFunction
from pdeopt.plotting import _span, _ticks, emit_plot
from pdeopt.rng import substream


class TestParseConfig:
    def test_resolved_delta_per_algorithm(self):
        # params hold only what the user set; each algorithm's defaults
        # resolve when its optimizer config is built
        cfg = parse_config(overrides={"kind": "optimize", "objective": "double_well_a1"})
        assert cfg.params == {"objective": "double_well_a1"}
        resolved = {a: _optimizer_config(cfg, a).delta for a in ("sgd", "entropy_sgd", "hj")}
        assert resolved == {"sgd": 0.0, "entropy_sgd": 0.9, "hj": 0.0}
        tuned = {a: _optimizer_config(cfg, a, tuned=True).delta for a in ("sgd", "entropy_sgd", "hj")}
        assert tuned == resolved
        cfg = parse_config(overrides={"kind": "optimize", "objective": "double_well_a1", "delta": 0.5})
        assert _optimizer_config(cfg, "sgd").delta == 0.5

    def test_fd_alias_in_config_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\nkind = solve_pde\nobjective = double_well_a1\n[pde]\nscheme = fd\n")
        assert parse_config(p).params["scheme"] == "monotone_fd"

    def test_removed_keys_rejected(self):
        for key in ("deterministic", "times"):
            with pytest.raises(ConfigError, match=key):
                parse_config(overrides={"kind": "optimize", key: "1"})

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\nkind = optimize\nobjective = double_well_a1\nseed = 3\n"
                     "[optimizer]\neta = 0.2\n")
        cfg = parse_config(p, overrides={"eta": 0.05})
        assert cfg.params == {"objective": "double_well_a1", "seed": 3, "eta": 0.05}

    def test_json_equivalent(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"experiment": {"kind": "optimize", "objective": "double_well_a1"},
                                 "optimizer": {"eta": 0.2, "L": 7}}))
        cfg = parse_config(p)
        assert cfg.kind == "optimize"
        assert cfg.params["eta"] == 0.2
        assert cfg.params["L"] == 7

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("[optimizer]\ngamm0 = 0.1\n")
        with pytest.raises(ConfigError, match="gamm0"):
            parse_config(p, overrides={"kind": "optimize"})

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(overrides={"kind": "optimize", "steps": "many"})

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(overrides={"objective": "double_well_a1"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"kind": "teleport"})

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found: .*absent.cfg"):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("section", [1, [1, 2], "kind=optimize"])
    def test_json_section_that_is_not_an_object_refused(self, tmp_path, section):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"experiment": {"kind": "optimize"}, "optimizer": section}))
        with pytest.raises(ConfigError, match="section 'optimizer' must map keys to values"):
            parse_config(p)

    def test_list_values(self):
        cfg = parse_config(overrides={"kind": "homogenization", "epsilons": "0.1,0.01"})
        assert cfg.params["epsilons"] == [0.1, 0.01]


class TestManifest:
    def test_roundtrip(self):
        cfg = ExperimentConfig(kind="compare", params={"objective": "mlp_h8_n200", "seed": 5, "repeats": 3,
                                                       "eta": 0.1, "algos": ["sgd", "hj"]})
        assert parse_manifest(emit_manifest(cfg)) == cfg

    def test_holds_exactly_the_keys_set(self, tmp_path, capsys):
        out = str(tmp_path / "fig1")
        assert main(["reproduce-figure1", "--out", out]) == 0
        data = json.loads((tmp_path / "fig1" / "manifest.json").read_text())
        assert data == {"kind": "figure1", "params": {"out": out}}

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        run_experiment(parse_config(overrides={"kind": "optimize", "objective": "double_well_a1",
                                               "algo": "entropy_sgd", "steps": 10, "seed": 4,
                                               "out": str(first)}))
        cfg = parse_manifest(json.loads((first / "manifest.json").read_text()))
        cfg.params["out"] = str(tmp_path / "b")
        run_experiment(cfg)
        assert (first / "run_4.csv").read_bytes() == (tmp_path / "b" / "run_4.csv").read_bytes()

    def test_written_file_roundtrip(self, tmp_path):
        cfg = parse_config(overrides={"kind": "optimize", "objective": "double_well_a1",
                                      "seed": 9, "steps": 10})
        write_manifest(cfg, tmp_path)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert parse_manifest(data) == cfg


class TestSubstreams:
    def test_label_isolation(self):
        a1 = substream(7, "objective").standard_normal(5)
        a2 = substream(7, "objective").standard_normal(5)
        b = substream(7, "optimizer").standard_normal(5)
        np.testing.assert_array_equal(a1, a2)
        assert not np.allclose(a1, b)

    def test_seed_isolation(self):
        a = substream(7, "paths").standard_normal(5)
        b = substream(8, "paths").standard_normal(5)
        assert not np.allclose(a, b)


class TestEmitPlot:
    def test_single_series_one_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("a", [0.0, 1.0], [1.0, 2.0])], path)
        svg = path.read_text()
        assert svg.count("<polyline") == 1
        assert "<svg" in svg and "</svg>" in svg

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([("a", [0.0, 1.0], [1.0])], tmp_path / "p.svg")

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "p.svg")

    def test_legend_order_four_series(self, tmp_path):
        path = tmp_path / "p.svg"
        labels = ["sgd", "entropy", "hj", "heat"]
        series = [(lbl, np.arange(5.0), np.arange(5.0) + i) for i, lbl in enumerate(labels)]
        emit_plot(series, path, title="loss")
        svg = path.read_text()
        assert svg.count("<polyline") == 4
        positions = [svg.index(f">{lbl}</text>") for lbl in labels]
        assert positions == sorted(positions)

    def test_non_finite_points_are_skipped(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("a", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, np.nan, np.inf]),
                   ("b", [0.0, 1.0], [np.nan, np.nan])], path)
        svg = path.read_text()
        assert svg.count("<polyline") == 2
        assert "nan" not in svg and "inf" not in svg
        # the y axis spans the finite values 1..2 only
        assert ">1</text>" in svg and ">2</text>" in svg and ">3</text>" not in svg

    def test_span_of_a_few_ulps_is_flat(self, tmp_path):
        # two losses 2 ulps apart: a tick step below half an ulp would never
        # move the running tick, and the tick list would grow without end
        losses = np.array([1.0994727795006063, 1.0994727795006065])
        lo, hi = _span(losses)
        assert (lo, hi) == (losses[0], losses[0] + 1.0)
        assert len(_ticks(lo, hi)) <= 6
        emit_plot([("a", [0.0, 1.0], losses)], tmp_path / "p.svg")
        assert (tmp_path / "p.svg").read_text().count("<polyline") == 1


class TestKeyTable:
    """``config.KINDS`` is the one declaration of each kind's keys: the CLI
    flags, the keys a config may set and the defaults a runner reads."""

    @staticmethod
    def _subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_flags_are_exactly_the_kinds_keys(self):
        subparsers = self._subparsers()
        assert sorted(subparsers) == sorted(k.command for k in KINDS.values())
        for kind, (command, defaults) in KINDS.items():
            sp = subparsers[command]
            assert sp.get_default("kind") == kind
            flags = {f for a in sp._actions for f in a.option_strings} - {"-h", "--help"}
            assert flags == {"--config"} | {"--" + k.replace("_", "-") for k in defaults}, command

    def test_flags_that_changed(self):
        subparsers = self._subparsers()
        flags = {c: {f for a in sp._actions for f in a.option_strings} for c, sp in subparsers.items()}
        assert "--n-workers" in flags["optimize"] and "--workers" not in flags["optimize"]
        assert {"--tolerance"} <= flags["verify-homogenization"]
        assert {"--rho0-sigma"} <= flags["reproduce-figure1"]
        assert {"--assert-vs-sgd", "--anneal-factor", "--anneal-period"} <= flags["compare"]
        assert not {"--t", "--scheme", "--repeats"} & flags["control-improvement"]
        for command in set(flags) - {"optimize", "compare"}:
            assert "--repeats" not in flags[command]

    def test_every_key_spec_is_read_by_a_kind(self):
        read = {key for kind in KINDS.values() for key in kind.defaults}
        assert read == set(KEY_SPECS)

    def test_key_outside_the_table_raises_in_the_runner(self):
        cfg = parse_config(overrides={"kind": "solve_pde", "objective": "double_well_a1"})
        assert cfg.param("grid_n") == 513
        with pytest.raises(LookupError, match="steps"):
            cfg.param("steps")

    def test_objective_defaults_per_kind(self):
        assert parse_config(overrides={"kind": "figure1"}).param("objective") == "rugged_s3_m6"
        cfg = parse_config(overrides={"kind": "figure1", "objective": "rugged_s7_m5"})
        assert cfg.param("objective") == "rugged_s7_m5"
        assert parse_config(overrides={"kind": "spectrum"}).param("objective") == ""

    def test_key_not_read_by_the_kind_refused_from_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("[experiment]\nkind = compare\n[optimizer]\nsteps = 5\n")
        with pytest.raises(ConfigError, match="'compare'.*'steps'"):
            parse_config(p)
        with pytest.raises(ConfigError, match="repeats"):
            parse_config(overrides={"kind": "solve_pde", "repeats": 2})

    def test_control_refuses_t_from_file_and_flag(self, tmp_path, capsys):
        p = tmp_path / "ctl.cfg"
        p.write_text("[experiment]\nkind = control\n[pde]\nt = 5\n")
        assert main(["control-improvement", "--config", str(p), "--out", str(tmp_path / "a")]) == 2
        assert "experiment kind 'control' reads no key 't'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="'control'.*'t'"):
            parse_config(overrides={"kind": "control", "t": 5})
        with pytest.raises(SystemExit) as exc:
            main(["control-improvement", "--t", "5", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t 5" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_bad_value_same_from_file_and_flag(self, tmp_path, capsys):
        p = tmp_path / "opt.cfg"
        p.write_text("[optimizer]\neta = abc\n")
        assert main(["optimize", "--config", str(p)]) == 2
        from_file = capsys.readouterr().err
        assert main(["optimize", "--eta", "abc"]) == 2
        from_flag = capsys.readouterr().err
        assert from_file == from_flag
        assert "bad value for 'eta'" in from_flag

    def test_every_key_refuses_nan_and_inf_from_flag_and_file(self, tmp_path, capsys, monkeypatch):
        # every key but the two strings converts to a number, a name or a
        # boolean, and refuses a non-finite value before the objective is resolved
        def resolve(name):
            raise AssertionError(f"objective {name!r} resolved before the values were checked")
        monkeypatch.setattr("pdeopt.experiments.get_entry", resolve)
        out = tmp_path / "r"
        for key in (k for k, spec in KEY_SPECS.items() if spec is not str):
            command = next(kind.command for kind in KINDS.values() if key in kind.defaults)
            for value in ("nan", "inf", "-inf"):
                path = tmp_path / "cfg.ini"
                path.write_text(f"[run]\n{key} = {value}\n")
                errs = []
                for argv in ([f"--{key.replace('_', '-')}={value}"], ["--config", str(path)]):
                    assert main([command, *argv, "--out", str(out)]) == 2, (key, value)
                    errs.append(capsys.readouterr().err)
                assert errs[0] == errs[1], (key, value)
                assert errs[0].startswith(f"config error: bad value for '{key}'") and errs[0].count("\n") == 1
                assert not out.exists()

    @pytest.mark.parametrize("key, value", [("grid_n", 64.9), ("grid_n", True), ("beta_inv", True)])
    def test_fraction_and_bool_refused_alike_from_json_and_flag(self, tmp_path, capsys, monkeypatch, key, value):
        # int() would truncate a JSON 64.9 to 64, and float() read true as 1.0
        def resolve(name):
            raise AssertionError(f"objective {name!r} resolved before the values were checked")
        monkeypatch.setattr("pdeopt.experiments.get_entry", resolve)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pde": {key: value}}))
        out = tmp_path / "r"
        errs = []
        for argv in (["--config", str(path)], [f"--{key.replace('_', '-')}", json.dumps(value)]):
            assert main(["solve-pde", "--objective", "double_well_a1", *argv, "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"config error: bad value for '{key}': '{json.dumps(value)}' (must be ")
        assert not out.exists()

    def test_every_integer_key_refuses_a_fraction_and_a_bool(self):
        def takes_integers(spec):
            try:
                return spec is not str and type(spec(7)) is int
            except ValueError:
                return False
        integer_keys = [k for k, spec in KEY_SPECS.items() if takes_integers(spec)]
        assert {"grid_n", "seed", "steps", "batch_size", "n_seeds", "budget"} <= set(integer_keys)
        for key in integer_keys:
            assert KEY_SPECS[key](64.0) == 64 and isinstance(KEY_SPECS[key](64.0), int)
            for bad in (64.9, "64.9", True, False):
                with pytest.raises(ValueError, match="must be an integer"):
                    KEY_SPECS[key](bad)
        for key in ("eta", "beta_inv", "t", "T", "gamma"):
            with pytest.raises(ValueError, match="must be a finite number"):
                KEY_SPECS[key](True)

    def test_names_checked_by_the_converters(self):
        for key, value in (("scheme", "upwind"), ("boundary", "wrap")):
            with pytest.raises(ConfigError, match=f"bad value for '{key}'.*{value}"):
                parse_config(overrides={"kind": "solve_pde", key: value})
        with pytest.raises(ConfigError, match="bad value for 'algo'.*zzz"):
            parse_config(overrides={"kind": "optimize", "algo": "zzz"})

    def test_unknown_algorithm_refused_before_any_step(self, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(optimizers, "step", lambda *a: steps.append(a))
        code = main(["compare", "--objective", "quadratic_c1_n1", "--algos", "sgd,zzz",
                     "--budget", "100", "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert "bad value for 'algos'" in capsys.readouterr().err
        assert steps == []


class TestRunExperiment:
    """Runs all eight kinds.  A runner reading a key outside its kind's table
    in ``config.KINDS`` raises ``LookupError``, so these runs also check that
    each runner's keys are declared; the fixture checks the converse."""

    @pytest.fixture(autouse=True)
    def _reads_every_key(self, monkeypatch):
        """Each run reads every key of its kind's table, except the common
        keys a runner may leave alone (``out`` is read by ``run_experiment``)."""
        read = {}
        param = ExperimentConfig.param

        def spy(cfg, key):
            read.setdefault(cfg.kind, set()).add(key)
            return param(cfg, key)

        monkeypatch.setattr(ExperimentConfig, "param", spy)
        yield
        for kind, keys in read.items():
            assert set(KINDS[kind].defaults) - keys <= {"out", "threads"}, kind

    def test_optimize_artifacts(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "optimize", "objective": "double_well_a1", "seed": 4,
            "algo": "sgd", "steps": 50, "repeats": 2, "out": str(tmp_path / "run"),
        })
        result = run_experiment(cfg)
        assert result.passed
        out = tmp_path / "run"
        assert (out / "manifest.json").exists()
        assert (out / "run_4.csv").exists()
        assert (out / "run_5.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "final_loss_mean" in summary

    def test_rerun_byte_identical(self, tmp_path):
        overrides = {"kind": "optimize", "objective": "double_well_a1", "seed": 4,
                     "algo": "entropy_sgd", "steps": 10, "repeats": 1}
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_experiment(parse_config(overrides={**overrides, "out": str(first)}))
        run_experiment(parse_config(overrides={**overrides, "out": str(second)}))
        assert (first / "run_4.csv").read_bytes() == (second / "run_4.csv").read_bytes()

    def test_repeats_summarized(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "optimize", "objective": "quadratic_c1_n1", "seed": 0,
            "algo": "sgd", "steps": 30, "repeats": 6, "out": str(tmp_path / "r"),
        })
        result = run_experiment(cfg)
        assert len(list((tmp_path / "r").glob("run_*.csv"))) == 6
        assert result.summary["final_loss_std"] >= 0.0

    def test_solve_pde_artifacts(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "solve_pde", "objective": "double_well_a1", "scheme": "hopf_lax",
            "t": 0.1, "grid_n": 65, "out": str(tmp_path / "pde"),
        })
        result = run_experiment(cfg)
        assert result.passed
        from pdeopt.grid import GridFunction
        u = GridFunction.from_csv(tmp_path / "pde" / "solution.csv")
        ub = GridFunction.from_binary(tmp_path / "pde" / "solution.bin")
        np.testing.assert_array_equal(u.values, ub.values)

    def test_compare_table_sorted(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "compare", "objective": "quadratic_c1_n2", "seed": 1,
            "algos": "sgd,hj,entropy_sgd", "budget": 400, "repeats": 2,
            "out": str(tmp_path / "cmp"),
        })
        run_experiment(cfg)
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        algs = [ln.split(",")[0] for ln in lines[1:]]
        assert algs == sorted(algs)

    def test_spectrum_experiment(self, tmp_path):
        cfg = parse_config(overrides={"kind": "spectrum", "n_random": 20, "seed": 2,
                                      "out": str(tmp_path / "spec")})
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["hm_violations"] == 0

    def test_homogenization_experiment(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "homogenization", "objective": "double_well_a1", "seed": 0,
            "gamma": 0.3, "epsilons": "0.01,0.005", "probes": "-1.6,0.75",
            "n_seeds": 2, "out": str(tmp_path / "hom"),
        })
        result = run_experiment(cfg)
        assert result.passed
        table = (tmp_path / "hom" / "homogenization.csv").read_text().splitlines()
        assert table[0].startswith("epsilon,")
        assert len(table) == 3

    def test_control_experiment(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "control", "objective": "double_well_a1", "seed": 3,
            "T": 0.5, "beta_inv": 0.2, "n_paths": 600, "grid_n": 257,
            "x0": 0.0, "out": str(tmp_path / "ctl"),
        })
        result = run_experiment(cfg)
        assert result.passed
        assert (tmp_path / "ctl" / "control.csv").exists()

    def test_invariant_measure_experiment(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "invariant_measure", "objective": "quadratic_c1_n1", "seed": 5,
            "gamma": 1.0, "beta": 1.0, "x": 2.0, "n_steps": 60000, "burn_in": 1500,
            "out": str(tmp_path / "inv"),
        })
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["closed_form_mean"] == [1.0]

    def test_invariant_measure_wrong_temperature_mapping_fails(self, tmp_path, monkeypatch):
        # beta_inv_ex = 1/beta makes the rows sample exp(-2 beta H), half the
        # closed-form variance; acceptance 4's inputs at a fifth of its samples
        monkeypatch.setattr(analysis, "gibbs_beta_inv_ex", lambda beta_inv: beta_inv)
        cfg = parse_config(overrides={
            "kind": "invariant_measure", "seed": 42, "n_steps": 200_000, "out": str(tmp_path / "inv"),
        })
        result = run_experiment(cfg)
        assert result.summary["checks"] == {"mean_within_3_stderr": True, "variance_within_3_stderr": False}
        row = np.genfromtxt(tmp_path / "inv" / "invariant_measure.csv", delimiter=",", names=True)
        assert (row["variance"] - 0.5) / row["variance_stderr"] <= -10.0

    def test_figure1_experiment(self, tmp_path):
        cfg = parse_config(overrides={
            "kind": "figure1", "objective": "rugged_s3_m6", "out": str(tmp_path / "fig1"),
        })
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["mass_viscous"] >= result.summary["mass_nonviscous"] + 0.02
        for name in ("density_viscous", "density_nonviscous", "density_sgd"):
            assert (tmp_path / "fig1" / f"{name}.csv").exists()
        assert (tmp_path / "fig1" / "plot.svg").exists()

    def test_repeats_match_single_runs(self, tmp_path):
        # three repeats run as rows of one state write the bytes of three
        # one-seed runs; ``threads`` parses and has no effect
        base = {"kind": "optimize", "objective": "double_well_a1", "algo": "sgd",
                "steps": 20, "beta_inv_ex": 0.01}
        batched = tmp_path / "batched"
        run_experiment(parse_config(overrides={**base, "seed": 11, "repeats": 3, "threads": 3,
                                               "out": str(batched)}))
        for seed in (11, 12, 13):
            single = tmp_path / f"single_{seed}"
            run_experiment(parse_config(overrides={**base, "seed": seed, "out": str(single)}))
            assert (batched / f"run_{seed}.csv").read_bytes() == (single / f"run_{seed}.csv").read_bytes()

    def test_compare_rerun_byte_identical(self, tmp_path):
        overrides = {"kind": "compare", "objective": "mlp_h8_n200", "seed": 3,
                     "algos": "sgd,hj", "budget": 200, "repeats": 2, "batch_size": 32}
        for name in ("a", "b"):
            run_experiment(parse_config(overrides={**overrides, "out": str(tmp_path / name)}))
        first = (tmp_path / "a" / "comparison.csv").read_bytes()
        assert first == (tmp_path / "b" / "comparison.csv").read_bytes()
        assert first.splitlines()[0] == b"algorithm,final_loss_mean,final_loss_std,effective_epochs"
        # the measured times go to summary.json only: one block, as the
        # algorithms run in lockstep
        timings = json.loads((tmp_path / "a" / "summary.json").read_text())["timings"]
        assert sorted(timings) == ["run_s", "us_per_grad_eval"]
        assert timings["run_s"] > 0 and timings["us_per_grad_eval"] > 0

    # one small run of every kind, and the run CSVs it writes
    CSV_RUNS = {
        "optimize_out_csv": ({"kind": "optimize", "objective": "double_well_a1", "algo": "sgd",
                              "steps": 20, "seed": 7, "repeats": 2, "out": "mine.csv"},
                             {"mine_7.csv", "mine_8.csv"}),
        "compare": ({"kind": "compare", "objective": "quadratic_c1_n2", "algos": "sgd,hj",
                     "budget": 200, "seed": 1, "repeats": 2},
                    {"comparison.csv", "run_hj_1.csv", "run_hj_2.csv", "run_sgd_1.csv", "run_sgd_2.csv"}),
        "solve_pde_1d": ({"kind": "solve_pde", "objective": "double_well_a1", "scheme": "hopf_lax",
                          "t": 0.1, "grid_n": 65}, {"solution.csv"}),
        "solve_pde_2d": ({"kind": "solve_pde", "objective": "quadratic_c1_n2", "scheme": "hopf_lax",
                          "t": 0.2, "grid_n": 17}, {"solution.csv"}),
        "figure1": ({"kind": "figure1", "objective": "rugged_s3_m6", "grid_n": 129},
                    {"density_viscous.csv", "density_nonviscous.csv", "density_sgd.csv"}),
        "homogenization": ({"kind": "homogenization", "objective": "double_well_a1", "gamma": 0.3,
                            "epsilons": "0.01,0.005", "probes": "-1.6,0.75", "n_seeds": 2},
                           {"homogenization.csv"}),
        "control": ({"kind": "control", "objective": "double_well_a1", "seed": 3, "T": 0.5,
                     "beta_inv": 0.2, "n_paths": 600, "grid_n": 257, "x0": 0.0}, {"control.csv"}),
        "invariant_measure": ({"kind": "invariant_measure", "objective": "quadratic_c1_n2", "seed": 5,
                               "gamma": 1.0, "beta": 1.0, "x": 2.0, "n_steps": 4000, "burn_in": 500,
                               "n_chains": 4}, {"invariant_measure.csv"}),
        "spectrum": ({"kind": "spectrum", "objective": "quadratic_c1_n2", "n_random": 5},
                     {"spectrum.csv"}),
    }
    LABEL_COLUMNS = {"algorithm", "quantity"}

    @pytest.mark.parametrize("run", sorted(CSV_RUNS))
    def test_every_csv_cell_is_a_number(self, tmp_path, run):
        overrides, expected = self.CSV_RUNS[run]
        out = tmp_path / "run"
        # ``--out mine.csv`` names the run files and writes them beside it
        target = out / overrides["out"] if "out" in overrides else out
        run_experiment(parse_config(overrides={**overrides, "out": str(target)}))
        written = {p.name for p in out.glob("*.csv")}
        assert written == expected
        for name in written:
            header, *rows = [line.split(",") for line in (out / name).read_text().splitlines()]
            assert rows, name
            for row in rows:
                assert len(row) == len(header), name
                for column, cell in zip(header, row):
                    if column not in self.LABEL_COLUMNS:
                        float(cell)     # an int or a float; raises on anything else


class TestCompareGolden:
    """A six-algorithm ``compare`` replays bit for bit: the sha256 of every
    CSV it writes, recorded when each algorithm ran through its own
    ``optimizers.run``.  ``mlp_h8_n200`` takes the minibatch path, where
    elastic spends its budget in a quarter of the inner steps of the others;
    the double well takes the analytic ``grad_batch`` path, and its tuned
    entropy_sgd step diverges to NaN."""

    ALGOS = "sgd,entropy_sgd,hj,hj2,heat,elastic"
    RUNS = {
        "mlp_h8_n200": (dict(budget=400, batch_size=32, seed=5), {
            "comparison.csv": "feea229b2cf1751811276aab5a668a0056c5b4d036b087177b9fb8d7230ec2f2",
            "run_elastic_5.csv": "2bc7c6722b01c0a93295d3090967db5d7c6b5012dcaae0bf16d5ab3225cfc615",
            "run_elastic_6.csv": "e83ab9d687d305b8b0c01a2e018d0912d4fe7160a23560a0787ebb31d717e9b7",
            "run_entropy_sgd_5.csv": "5b474d95ccb0aa680936d4612d070dac4948b2e66c96654c217e0d060c2d6be1",
            "run_entropy_sgd_6.csv": "3f63cf9fb3a16644ef46edb70e581dd12e495273599586ea4b36b51d29d3ef9e",
            "run_heat_5.csv": "c98ed82902a6fcba5a3ed33d12cc2a183cabc4d871d965d34e3a261be7d417b0",
            "run_heat_6.csv": "17b578c5b4b72d9ed493548fefb5c9f2b005eb5afc0af665361a5524f4c56bd5",
            "run_hj2_5.csv": "9141b5c86727d16b0b3e5bbf9b51b4f0130f7e53d9e86db24b8b38dc58e722f0",
            "run_hj2_6.csv": "af20c58fa48221c28bc16e2e2b0e56a57326a104cfad9be8a4a35170de6f521b",
            "run_hj_5.csv": "24b2c4d9cddcbd108109179ca81ee7ccb43af74d52cb2e2d316f22dbd2662151",
            "run_hj_6.csv": "c80e223f21e981a406c39d669109a694ff483f61c1d5b0b673f6b70018d433bb",
            "run_sgd_5.csv": "dcdb80d8b3865c2ae2acf8b4256125f801ccb133589ce1e12ebc5548c0479fd2",
            "run_sgd_6.csv": "1bc6f4786ab62a7ef891c6c39c8be4e02dc8c79c8d2135f72d95271c56c1752e",
        }),
        "double_well_a0.8": (dict(budget=300, seed=2), {
            "comparison.csv": "884916482964af7b794c7ad5a2d2a9a226caf37c91e81e263583ecaf5e81c82f",
            "run_elastic_2.csv": "5485d5bfd766e9bc92d5f6ff927d812be75c71bf2468945e453128d725e659e1",
            "run_elastic_3.csv": "5f6ff058b2e2e009de2177a5c0be77980d3cfeb92afdf2068709a473b344417b",
            "run_entropy_sgd_2.csv": "70e73e2046f85b40280fcb9f5d9cfdf4ea15c84e216336199c67196611d7da92",
            "run_entropy_sgd_3.csv": "794ecca2d1af23cffb0a4409f2ca887953ff6661f074057341fd63e6b03a7a04",
            "run_heat_2.csv": "5f79aa6afb0f92656d77196e1d05b7f733c14e36deaac0a09dfc505d887b357f",
            "run_heat_3.csv": "844e20396a0408b1d0383a5c4b8ac1a3f1a6ae89c39bf8807eb33187d39e98f9",
            "run_hj2_2.csv": "e6d11da563165bfd7e9823af3473919421dd03f658379adb30db47dd89ed945c",
            "run_hj2_3.csv": "e6d11da563165bfd7e9823af3473919421dd03f658379adb30db47dd89ed945c",
            "run_hj_2.csv": "5419d54e4c5f2cb484badb2b3e5114bd9d0ccc567074f93ccd67023fa20ae736",
            "run_hj_3.csv": "5419d54e4c5f2cb484badb2b3e5114bd9d0ccc567074f93ccd67023fa20ae736",
            "run_sgd_2.csv": "4bb11a000fcd72d4e991dc695eea80b78b41140202df54d2e23faa3b47e27844",
            "run_sgd_3.csv": "4bb11a000fcd72d4e991dc695eea80b78b41140202df54d2e23faa3b47e27844",
        }),
    }

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("objective", sorted(RUNS))
    def test_replays_recorded_csvs(self, tmp_path, objective):
        keys, digests = self.RUNS[objective]
        run_experiment(parse_config(overrides={"kind": "compare", "objective": objective, "algos": self.ALGOS,
                                               "repeats": 2, **keys, "out": str(tmp_path)}))
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
        assert written == digests


class TestGeneratorRunGolden:
    """Runs through the reflected generator replay bit for bit: the sha256 of
    every CSV of two ``control`` runs (the backward HJB, then the path
    simulator) and of ``figure1`` (Fokker-Planck densities), recorded when
    the generator was a scipy CSR matrix."""

    RUNS = {
        "control_257": ({"kind": "control", "objective": "double_well_a1", "seed": 3, "T": 0.5,
                         "beta_inv": 0.2, "n_paths": 600, "grid_n": 257, "x0": 0.0}, {
            "control.csv": "46f5368f157f64bb44cc5b104b3db8a4a7414dbbb21c01d000bb9ead5880cace",
        }),
        "control_513": ({"kind": "control", "objective": "double_well_a1", "seed": 8, "T": 1.0,
                         "beta_inv": 0.2, "n_paths": 400, "grid_n": 513, "x0": 0.0}, {
            "control.csv": "e2754fbf0c8febe96a3909e98010d938f6ea65d62e115c7f879e6a01e5968619",
        }),
        "figure1": ({"kind": "figure1", "objective": "rugged_s3_m6"}, {
            "density_nonviscous.csv": "6412a7610446d311da3515d1f622d53701a5ce74d21e6817faee86d334de069c",
            "density_sgd.csv": "067e7bdd83e2fef44fc07e2c506ea22d1414f8dae5ae870a1306dbe38ffb6dbd",
            "density_viscous.csv": "4af7b62a09b3f832f216dccc4d86be2054720e3ba88bacbf643e8bca92672e14",
        }),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_replays_recorded_csvs(self, tmp_path, run):
        overrides, digests = self.RUNS[run]
        run_experiment(parse_config(overrides={**overrides, "out": str(tmp_path)}))
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
        assert written == digests


class TestSummaryGolden:
    """Every kind's ``summary.json`` replays bit for bit at small inputs:
    its sha256, with compare's measured ``timings`` block taken out."""

    RUNS = {
        "optimize": ({"objective": "mlp_h4_n20", "steps": 20},
                     "5d9f89b9ae08abcfbfbaca25f820d80554bf555b3482cc0f430a5db3619181e8"),
        "compare": ({"objective": "mlp_h4_n20", "budget": 2000},
                    "68f09a1ff65157cfbc0025cd6354b6637e31e4b49694f1790356cf36462618b5"),
        "solve_pde": ({"objective": "rugged_s7_m5", "scheme": "heat", "grid_n": 257},
                      "986109e6706ea5cdb30abd608f27751c3340abc9c92a9f86c705542e2a5d00b3"),
        "figure1": ({}, "b6ad426cda3ac79fe4579f4a5ce57c4a269fcd2680fe98c46f670673690b8022"),
        "homogenization": ({"probes": [-0.75, 0.55], "n_seeds": 4},
                           "b3f35606a71ed8230963cb1f7ffb757dfa9f0e795b041edacf87f163e015f78b"),
        "control": ({"T": 0.5, "n_paths": 400, "grid_n": 129},
                    "6dc4ff88a1ac154802f1e1302b716463ac9efd5707d61e3cb5953da67a580a3c"),
        "invariant_measure": ({"n_steps": 20000},
                              "aaecff22cf914de55256f10daf2b1dae0b54d0c93ade3bd3e8b6dfb99acd187b"),
        "spectrum": ({}, "ba3c83add6500dceea1405d9fe236f56c32364b450c7062db620c38cb7eeff16"),
        "spectrum/quadratic_c1_n2": ({"objective": "quadratic_c1_n2"},
                                     "b7e1e6ca082e044f2fa0e837feacf770d1c9f8c2fee92cc097d40d8895ba5636"),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_replays_recorded_summary(self, tmp_path, run):
        keys, digest = self.RUNS[run]
        kind = run.partition("/")[0]
        run_experiment(parse_config(overrides={"kind": kind, **keys, "out": str(tmp_path)}))
        text = (tmp_path / "summary.json").read_text()
        if kind == "compare":
            summary = json.loads(text)
            del summary["timings"]
            text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestNoScipy:
    """A fresh interpreter imports the CLI and runs a small ``optimize``,
    ``compare``, ``control-improvement`` and ``solve-pde``, on MLP,
    double-well and rugged objectives, without loading any scipy module; the
    log-sum-exp fallback tests show the lazy import still runs."""

    RUNS = [
        ["optimize", "--objective", "mlp_h4_n20", "--steps", "20"],
        ["compare", "--objective", "mlp_h4_n20", "--budget", "2000"],
        ["control-improvement", "--T", "0.5", "--n-paths", "400", "--grid-n", "129"],
        # rugged objectives: their minima are polished only when read
        ["solve-pde", "--objective", "rugged_s7_m5", "--scheme", "heat", "--grid-n", "257"],
        ["optimize", "--objective", "rugged_s3_m6", "--steps", "20"],
    ]

    SCRIPT = """
import contextlib, io, json, sys
from pdeopt.cli import main
for i, argv in enumerate(json.loads(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", f"{sys.argv[1]}/run{i}"])
    assert code in (0, 1), (argv, code)   # 1: the run completed and a check failed
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""

    def test_cli_runs_load_no_scipy(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(pdeopt.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path), json.dumps(self.RUNS)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert len(list(tmp_path.iterdir())) == len(self.RUNS)


class TestCliMain:
    def test_optimize_exit_zero(self, tmp_path, capsys):
        code = main(["optimize", "--objective", "quadratic_c1_n1", "--algo", "sgd",
                     "--steps", "40", "--seed", "2", "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["kind"] == "optimize"

    def test_unknown_objective_exit_code(self, tmp_path, capsys):
        code = main(["optimize", "--objective", "bogus_b1", "--steps", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bogus_b1" in capsys.readouterr().err

    def test_unknown_objective_message_unquoted(self, tmp_path, capsys):
        assert main(["solve-pde", "--objective", "nope", "--out", str(tmp_path / "n")]) == 2
        assert capsys.readouterr().err == "config error: unknown objective name: 'nope'\n"
        assert not (tmp_path / "n").exists()

    def test_out_csv_names_run_file(self, tmp_path, capsys):
        target = tmp_path / "mine.csv"
        code = main(["optimize", "--objective", "quadratic_c1_n1", "--algo", "sgd",
                     "--steps", "10", "--seed", "1", "--out", str(target)])
        assert code == 0
        assert target.exists()
        assert (tmp_path / "manifest.json").exists()

    def test_default_batch_on_a_small_dataset_is_all_of_it(self, tmp_path, capsys):
        # 20 samples, fewer than the default 32: each gradient is one epoch
        out = tmp_path / "small"
        assert main(["optimize", "--objective", "mlp_h4_n20", "--steps", "3", "--out", str(out)]) == 0
        rec = optimizers.RunRecord.from_csv(out / "run_0.csv")
        assert list(rec.column("effective_epoch")) == list(rec.column("k")) == [1, 2, 3]

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    def test_batch_size_refused_without_a_dataset(self, tmp_path, capsys, command):
        # the double well has no samples to batch: the key would be a no-op
        p = tmp_path / "batched.cfg"
        p.write_text("[optimizer]\nbatch_size = 8\n")
        out = tmp_path / "r"
        for route in (["--batch-size", "8"], ["--config", str(p)]):
            assert main([command, "--objective", "double_well_a1", *route, "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: batch_size=8: DoubleWell has no dataset\n"
            assert not out.exists()

    @pytest.mark.parametrize("command, kind", [("solve-pde", "solve_pde"), ("reproduce-figure1", "figure1")])
    def test_seed_refused_where_nothing_is_drawn(self, tmp_path, capsys, command, kind):
        # neither kind draws a random number: a seed would be a no-op
        p = tmp_path / "seeded.cfg"
        p.write_text("[experiment]\nseed = 3\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: experiment kind {kind!r} reads no key 'seed'\n"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_solve_pde_fd_alias(self, tmp_path, capsys):
        for scheme in ("fd", "monotone_fd"):
            code = main(["solve-pde", "--objective", "quadratic_c1_n1", "--scheme", scheme,
                         "--beta-inv", "0.0", "--t", "0.2", "--grid-n", "65",
                         "--out", str(tmp_path / scheme)])
            assert code == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["scheme"] == "monotone_fd"

    def test_solver_value_error_is_one_line(self, tmp_path, capsys):
        # the Cole-Hopf work budget refuses this solve
        code = main(["solve-pde", "--objective", "quadratic_c1_n2", "--grid-n", "129",
                     "--beta-inv", "1e-4", "--t", "0.05", "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("argv, message", [
        # 2.5 % of the paths leave the box at this diffusion
        (["control-improvement", "--beta-inv", "3", "--n-paths", "400", "--grid-n", "129", "--T", "1"],
         "left the box"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "fd", "--boundary", "periodic",
          "--grid-n", "65"], "extrapolating boundaries only"),
        (["solve-pde", "--objective", "rugged_s3_m6", "--scheme", "hopf_lax", "--boundary", "periodic",
          "--grid-n", "65"], "Hopf-Lax inf-convolution"),
        (["solve-pde", "--objective", "rugged_s3_m6", "--scheme", "cole_hopf", "--beta-inv", "0",
          "--boundary", "periodic", "--grid-n", "65"], "Hopf-Lax inf-convolution"),
        (["solve-pde", "--objective", "mlp_h8_n200", "--grid-n", "65"], "dim 1 or 2 only"),
        (["optimize", "--objective", "double_well_a1", "--record-every", "0"], "record_every=0"),
        (["optimize", "--objective", "double_well_a1", "--steps", "0"], "steps=0"),
        (["optimize", "--objective", "double_well_a1", "--steps", "-3"], "steps=-3"),
        (["invariant-measure", "--n-chains", "1"], "n_chains=1"),
        # 2.1e10 node-steps, minutes of upwind stepping
        (["solve-pde", "--scheme", "fd", "--objective", "rugged_s3_m6", "--grid-n", "8193", "--t", "10"],
         "error: explicit stepping at beta_inv=0.1, t=10, grid_n=8193 needs 2,505,104 steps of 8,193 nodes"),
        (["optimize", "--objective", "quadratic_c1_n1", "--eta-y", "0"], "error: eta_y=0"),
        (["optimize", "--objective", "quadratic_c1_n1", "--eta=-1"], "error: eta=-1"),
    ], ids=["control_paths_exit", "fd_periodic", "hopf_lax_periodic", "cole_hopf_zero_viscosity_periodic",
            "grid_above_2d", "record_every_zero", "steps_zero", "steps_negative", "one_chain", "fd_node_steps",
            "eta_y_zero", "eta_negative"])
    def test_refusal_is_one_line(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [
        ["solve-pde", "--scheme", "fd"],
        ["solve-pde", "--scheme", "fd", "--beta-inv", "0"],
        ["control-improvement"],
    ], ids=["fd", "fd_inviscid", "control"])
    def test_grid_over_the_sample_budget_refused_before_its_nodes(self, tmp_path, capsys, monkeypatch, argv):
        def nodes(self):
            raise AssertionError("grid nodes built before the grid was checked")
        monkeypatch.setattr(GridFunction, "points", nodes)
        argv = argv + ["--objective", "quadratic_c1_n2", "--grid-n", "4097", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid_n=4097 has 16,785,409 nodes, over the budget")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    # ``message`` starts the one stderr line: ``config error: bad value for
    # '<key>'`` where the key's converter refuses it, ``error: ...`` where a
    # check that needs the objective, the grid or a second key does
    @pytest.mark.parametrize("argv, message", [
        (["verify-homogenization", "--epsilons", ""], "error: epsilons is empty"),
        (["verify-homogenization", "--epsilons", "0.1,0"], "error: epsilons holds 0:"),
        (["verify-homogenization", "--epsilons=-0.1"], "error: epsilons holds -0.1:"),
        (["verify-homogenization", "--probes", ""], "error: probes is empty"),
        (["verify-homogenization", "--n-seeds", "0"], "config error: bad value for 'n_seeds'"),
        (["verify-homogenization", "--gamma", "0"], "config error: bad value for 'gamma'"),
        (["verify-homogenization", "--beta-inv=-0.1"], "config error: bad value for 'beta_inv'"),
        (["reproduce-figure1", "--objective", "quadratic_c1_n2", "--grid-n", "33"],
         "error: objective=quadratic_c1_n2: figure1 needs a 1D objective"),
        (["reproduce-figure1", "--objective", "mlp_h4_n20"],
         "error: objective=mlp_h4_n20: figure1 needs a 1D objective"),
        (["control-improvement", "--T=-1"], "config error: bad value for 'T'"),
        (["control-improvement", "--n-paths", "5"], "error: n_paths=5: at least 20"),
        (["reproduce-figure1", "--T=-1"], "config error: bad value for 'T'"),
        (["reproduce-figure1", "--t-smooth", "0"], "config error: bad value for 't_smooth'"),
        (["reproduce-figure1", "--window-frac", "0"], "config error: bad value for 'window_frac'"),
        (["reproduce-figure1", "--window-frac", "1e-6"], "error: window_frac=1e-06: the window around x_star"),
        (["reproduce-figure1", "--rho0-sigma=-0.5"], "config error: bad value for 'rho0_sigma'"),
        (["reproduce-figure1", "--min-gap=-1"], "config error: bad value for 'min_gap'"),
        (["reproduce-figure1", "--beta-inv-fp=-0.01"], "config error: bad value for 'beta_inv_fp'"),
        (["spectrum", "--n-random", "0"], "config error: bad value for 'n_random'"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "fd", "--dt=-5"], "error: dt=-5:"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "fd", "--dt", "0"], "error: dt=0:"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "fd", "--dt", "nan"],
         "config error: bad value for 'dt'"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "heat", "--dt=-5"], "error: dt=-5:"),
        (["solve-pde", "--objective", "double_well_a1", "--scheme", "cole_hopf", "--dt", "5"],
         "error: dt=5: the quadrature scheme 'cole_hopf'"),
        (["control-improvement", "--T", "nan"], "config error: bad value for 'T'"),
        (["invariant-measure", "--beta", "0"], "config error: bad value for 'beta'"),
        (["invariant-measure", "--burn-in=-100", "--n-steps", "3200"], "error: burn_in=-100:"),
        (["invariant-measure", "--n-steps", "0"], "error: n_steps=0:"),
        (["solve-pde", "--objective", "double_well_a1", "--beta-inv", "inf"],
         "config error: bad value for 'beta_inv'"),
        (["solve-pde", "--objective", "double_well_a1", "--t", "nan"], "config error: bad value for 't'"),
        (["solve-pde", "--objective", "double_well_a1", "--t", "0"], "config error: bad value for 't'"),
        (["solve-pde", "--objective", "double_well_a1", "--grid-n", "2"], "config error: bad value for 'grid_n'"),
    ], ids=["no_epsilons", "zero_epsilon", "negative_epsilon", "no_probes", "no_seeds", "zero_gamma",
            "negative_beta_inv", "figure1_2d", "figure1_mlp", "control_negative_T", "control_few_paths",
            "figure1_negative_T", "figure1_zero_t_smooth", "figure1_zero_window", "figure1_window_between_nodes",
            "figure1_negative_rho0_sigma", "figure1_negative_min_gap", "figure1_negative_beta_inv_fp",
            "spectrum_no_draws", "fd_negative_dt", "fd_zero_dt", "fd_nan_dt", "heat_dt", "cole_hopf_dt",
            "control_nan_T", "invariant_zero_beta", "invariant_negative_burn_in", "invariant_no_samples",
            "pde_inf_beta_inv", "pde_nan_t", "pde_zero_t", "pde_two_points"])
    def test_bad_input_refused_by_name_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        def work(*args, **kwargs):
            raise AssertionError("work started before the input was checked")
        for module, name in ((analysis, "prox_point"), (analysis, "run"), (analysis, "init_state"),
                             (analysis, "solve_hjb_backward"),
                             (pde_lab, "solve_viscous_hj_cole_hopf"), (pde_lab, "solve_hj_hopf_lax"),
                             (pde_lab, "solve_hj_monotone_fd"), (pde_lab, "solve_heat"),
                             (pde_lab, "evolve_fokker_planck")):
            monkeypatch.setattr(module, name, work)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_diverged_compare_fails_its_checks(self, tmp_path, capsys):
        # the tuned entropy_sgd step diverges on the double well: its loss
        # turns NaN, and the run still writes its plot and summary
        out = tmp_path / "c"
        code = main(["compare", "--objective", "double_well_a1", "--budget", "300",
                     "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        failing = [k for k, v in summary["checks"].items() if not v]
        assert failing and "entropy_sgd_not_worse_than_sgd" in failing
        assert f"FAILED checks: {', '.join(failing)}" in capsys.readouterr().err
        assert (out / "manifest.json").exists() and (out / "plot.svg").exists()

    def test_assert_vs_sgd_false_runs_no_sgd_checks(self, tmp_path, capsys):
        args = ["compare", "--objective", "quadratic_c1_n2", "--algos", "sgd,hj", "--budget", "200"]
        main(args + ["--out", str(tmp_path / "on")])
        assert "hj_not_worse_than_sgd" in json.loads(capsys.readouterr().out)["checks"]
        assert main(args + ["--assert-vs-sgd", "false", "--out", str(tmp_path / "off")]) == 0
        assert json.loads(capsys.readouterr().out)["checks"] == {}

    def test_bad_boolean_in_file_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[optimizer]\nassert_vs_sgd = maybe\n")
        code = main(["compare", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'assert_vs_sgd'" in err and "maybe" in err
        assert not (tmp_path / "c").exists()

    def test_spectrum_cli(self, tmp_path, capsys):
        code = main(["spectrum", "--n-random", "10", "--seed", "1",
                     "--out", str(tmp_path / "s")])
        assert code == 0

    def test_out_csv_is_a_directory_beyond_optimize(self, tmp_path, capsys):
        # only optimize reads `--out NAME.csv` as its run file
        out = tmp_path / "lab.csv"
        assert main(["solve-pde", "--objective", "double_well_a1", "--grid-n", "65", "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["lab.csv"]
        assert (out / "solution.csv").exists() and (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [["optimize"], ["compare", "--budget", "10"], ["solve-pde"]],
                             ids=["optimize", "compare", "solve_pde"])
    def test_missing_objective_named(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nthreads = 1\n")   # a config file that leaves the objective unset
        out = tmp_path / "r"
        for route in ([], ["--config", str(cfg)]):
            assert main(argv + route + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == "config error: missing required key 'objective'\n"
            assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_empty_objective_name_refused(self, tmp_path, capsys, kind):
        out = tmp_path / "r"
        code = main([KINDS[kind].command, "--objective", ""] + (["--n-random", "5"] if kind == "spectrum" else [])
                    + ["--out", str(out)])
        if kind == "spectrum":   # the one kind that runs without an objective
            assert code == 0 and (out / "summary.json").exists()
            return
        assert code == 2
        assert capsys.readouterr().err == "config error: unknown objective name: ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["3", "0", "-5"])
    def test_budget_below_an_outer_step_refused(self, tmp_path, capsys, budget):
        # one outer step of hj costs L = 5 gradients: a smaller budget would
        # give hj more gradients than sgd
        out = tmp_path / "cmp"
        assert main(["compare", "--objective", "double_well_a1", "--budget", budget, "--algos", "sgd,hj",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: budget={budget} is below hj's gradients per outer step (5)\n"
        assert not out.exists()

    def test_algorithm_named_twice_refused(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--objective", "double_well_a1", "--algos", "sgd,sgd", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: bad value for 'algos': 'sgd,sgd' "
                                           "(an algorithm is named twice)\n")
        assert not out.exists()
