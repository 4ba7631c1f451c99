"""Command-line interface: validation, outputs, determinism, seed handling."""
import json
import subprocess
import sys

import pytest

from smjd.cli import main

OUT_FILES = ("resolved_config.json", "results.csv", "report.json",
             "summary.txt")


def _rs_config(**overrides):
    cfg = {
        "experiment": "simulate",
        "seed": 42,
        "regime": {"kernel": [[0, 1], [1, 0]],
                   "holding": [{"kind": "exponential", "rate": 2.0},
                               {"kind": "exponential", "rate": 1.0}]},
        "model": {"kind": "rs", "r": [0.05, 0.02], "mu": [0.13, 0.08],
                  "sigma": [0.2, 0.3], "gamma": 0.5, "horizon": 1.0,
                  "x0": 1.0, "i0": 0},
        "numerics": {"n_paths": 40, "dt": 0.02, "functional_paths": 50},
    }
    cfg.update(overrides)
    return cfg


def _ql_jumps(**overrides):
    return {"rate": 2.0, "atoms": [-0.05, 0.08], "weights": [0.4, 0.6],
            "coeff_scale": [1.0, 1.5], **overrides}


def _ql_model(**overrides):
    return {"kind": "ql", "r": [0.05, 0.03], "mbar": [0.4, 0.3],
            "sigma": [0.2, 0.25], "d": 1.0, "horizon": 1.0, "x0": 0.5,
            "i0": 0, "jumps": _ql_jumps(), **overrides}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _run(command, cfg_path, out, *extra):
    return main([command, "--config", str(cfg_path), "--out", str(out),
                 *extra])


class TestConfigValidation:
    def test_missing_seed_exits_2_naming_field(self, tmp_path, capsys):
        cfg = _rs_config()
        del cfg["seed"]
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err

    def test_unknown_key_exits_2_naming_key(self, tmp_path, capsys):
        cfg = _rs_config(frobnicate=3)
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        cfg = _rs_config()
        cfg["numerics"]["dx"] = 0.1
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        assert "dx" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = _run("simulate", p, tmp_path / "o")
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = _run("simulate", tmp_path / "absent.json", tmp_path / "o")
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_command_config_mismatch_exits_2(self, tmp_path, capsys):
        rc = _run("dynkin", _write(tmp_path, _rs_config()), tmp_path / "o")
        assert rc == 2
        assert "experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("$.model.i0", lambda c: c["model"].update(i0=5)),
        ("$.model.r", lambda c: c["model"].update(
            r=[0.05, 0.02, 0.01], mu=[0.1, 0.1, 0.1], sigma=[0.2, 0.3, 0.2])),
        ("$.model.mu", lambda c: c["model"].update(mu=[0.1, 0.1, 0.1])),
        ("$.model.sigma", lambda c: c["model"].update(sigma=[0.2])),
        ("$.model.mbar", lambda c: c.update(model=_ql_model(
            mbar=[0.4, 0.3, 0.2]))),
        ("$.model.jumps.coeff_scale", lambda c: c.update(model=_ql_model(
            jumps=_ql_jumps(coeff_scale=[1.0])))),
        ("$.model.jumps.weights", lambda c: c.update(model=_ql_model(
            jumps=_ql_jumps(weights=[0.4, 0.3, 0.3])))),
        ("$.queries[1][2]", lambda c: c.update(
            experiment="policy-eval", queries=[[0.0, 1.0, 0, 0.0],
                                               [0.0, 1.0, 2, 0.0]])),
        # queries outside [0, horizon] x [0, inf) are refused, not clamped
        ("$.queries[0][0]", lambda c: c.update(
            experiment="policy-eval", queries=[[-3.0, 1.0, 0, 0.0]])),
        ("$.queries[1][0]", lambda c: c.update(
            experiment="policy-eval", queries=[[1.0, 1.0, 0, 0.0],
                                               [1.5, 1.0, 0, 0.0]])),
        ("$.queries[0][3]", lambda c: c.update(
            experiment="policy-eval", queries=[[0.5, 1.0, 1, -0.5]])),
        # the default 3 age nodes on [0, y_max] collapse at y_max = 0
        ("$.numerics.y_max", lambda c: c.update(
            experiment="policy-eval", model=_ql_model(),
            numerics={**c["numerics"], "y_max": 0},
            queries=[[0.0, 1.0, 0, 0.0]])),
        # a ragged kernel is named by its short row, not as all of $.regime
        ("$.regime.kernel[1]", lambda c: c["regime"].update(
            kernel=[[0, 1], [1]])),
    ])
    def test_cross_field_mismatch_exits_2_naming_field(self, tmp_path, capsys,
                                                       field, edit):
        cfg = _rs_config()
        edit(cfg)
        rc = _run(cfg["experiment"], _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err

    @pytest.mark.parametrize("field, edit", [
        ("$.numerics.dt", lambda c: c["numerics"].update(dt=float("nan"))),
        ("$.model.x0", lambda c: c["model"].update(x0=float("nan"))),
        ("$.model.y0", lambda c: c["model"].update(y0=float("nan"))),
        ("$.model.d", lambda c: c["model"].update(d=float("inf"))),
    ])
    def test_non_finite_number_exits_2_naming_field(self, tmp_path, capsys,
                                                    field, edit):
        # json reads NaN and Infinity; the schema bounds let them through
        cfg = _rs_config(experiment="ql-verify", model=_ql_model())
        edit(cfg)
        path = _write(tmp_path, cfg)
        assert ("NaN" in path.read_text()) != (field == "$.model.d")
        rc = _run("ql-verify", path, tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field}: not a finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "rs-verify", "ql-verify",
                                         "reduce-markov"])
    def test_dt_without_a_step_exits_2(self, tmp_path, capsys, command):
        # horizon 1: dt 3 rounds to no step of the noise plan's base grid
        cfg = _rs_config(experiment=command)
        if command == "ql-verify":
            cfg["model"] = _ql_model()
        cfg["numerics"]["dt"] = 3.0
        rc = _run(command, _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "$.numerics.dt" in err

    @pytest.mark.parametrize("command", ["simulate", "rs-verify", "dynkin"])
    def test_start_age_past_support_exits_2(self, tmp_path, capsys, command):
        # the exponential(2) law of state 0 has cdf 1 - e^-80 == 1 at age 40
        cfg = _rs_config(experiment=command)
        cfg["model"]["y0"] = 40.0
        rc = _run(command, _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "$.model.y0" in err
        assert "AgeBeyondSupport" not in err

    @pytest.mark.parametrize("command, kind", [
        ("rs-verify", "rs"), ("ql-verify", "ql"), ("simulate", "ql"),
        ("policy-eval", "ql")])
    def test_age_grid_past_support_exits_2(self, tmp_path, capsys, command,
                                           kind):
        # the (t, age) functional grid reaches age 40 in every state
        cfg = _rs_config(experiment=command)
        if command == "policy-eval":
            cfg["queries"] = [[0.0, 1.0, 0, 0.0]]
        if kind == "ql":
            cfg["model"] = _ql_model()
        cfg["numerics"]["y_max"] = 40.0
        rc = _run(command, _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "$.numerics.y_max" in err

    @pytest.mark.parametrize("kind", ["rs", "ql"])
    def test_zero_sigma_exits_2(self, tmp_path, capsys, kind):
        cfg = _rs_config()
        if kind == "ql":
            cfg["model"] = _ql_model()
        cfg["model"]["sigma"] = [0.0, 0.3]
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "$.model.sigma" in err

    def test_bad_kernel_exits_2(self, tmp_path, capsys):
        cfg = _rs_config()
        cfg["regime"]["kernel"] = [[0, 0.5], [1, 0]]  # row sum != 1
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        assert "regime" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("$.model.jumps.weights", lambda c: c.update(model=_ql_model(
            jumps=_ql_jumps(weights=[0.5, 0.6])))),
        ("$.model.jumps.weights", lambda c: c.update(model=_ql_model(
            jumps=_ql_jumps(weights=[1.2, -0.2])))),
        ("$.model.jumps.atoms", lambda c: c.update(model=_ql_model(
            jumps=_ql_jumps(atoms=[-1.5, 0.08])))),
        ("$.model.mbar", lambda c: c.update(model=_ql_model(
            mbar=[0.4, -0.1]))),
        ("$.model.mu", lambda c: c["model"].update(mu=[0.01, 0.08])),
        ("$.model.gamma", lambda c: c["model"].update(gamma=1.0)),
        ("$.regime.kernel", lambda c: c["regime"].update(
            kernel=[[0, 0.5], [1, 0]])),
        ("$.regime.kernel", lambda c: c["regime"].update(
            kernel=[[0.5, 0.5], [1, 0]])),
        # three states: 0 and 1 never reach 2
        ("$.regime.kernel", lambda c: c.update(
            regime={"kernel": [[0, 1, 0], [1, 0, 0], [0.5, 0.5, 0]],
                    "holding": [{"kind": "exponential", "rate": 1.0}] * 3},
            model={**c["model"], "r": [0.05] * 3, "mu": [0.1] * 3,
                   "sigma": [0.2] * 3})),
    ], ids=["weights-sum", "weights-negative", "atoms-wealth", "ql-mbar",
            "rs-mu", "rs-gamma", "kernel-rows", "kernel-diagonal",
            "kernel-reducible"])
    def test_constructor_refusal_exits_2_naming_field(self, tmp_path, capsys,
                                                      field, edit):
        cfg = _rs_config()
        edit(cfg)
        rc = _run("simulate", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config invalid at {field}:" in err

    def test_weibull_shape_below_one_exits_2_for_dynkin(self, tmp_path,
                                                        capsys):
        # the hazard of shape 0.7 is infinite at age 0, where every switch
        # into state 1 starts its sojourn
        cfg = _rs_config(experiment="dynkin")
        cfg["regime"]["holding"] = [
            {"kind": "weibull", "shape": 1.5, "scale": 0.5},
            {"kind": "weibull", "shape": 0.7, "scale": 0.8}]
        cfg["numerics"] = {"n_paths": 30, "dt": 0.05}
        rc = _run("dynkin", _write(tmp_path, cfg), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "$.regime.holding[1].shape" in err
        assert "infinite at age 0" in err

    @pytest.mark.parametrize("field, value", [("fixed_point_tol", 1e-4),
                                              ("fixed_point_max_iter", 50)])
    def test_removed_fixed_point_fields_exit_2(self, tmp_path, capsys, field,
                                               value):
        # the QL functionals take one backward sweep: no tolerance or cap
        cfg = _rs_config(experiment="policy-eval", model=_ql_model(),
                         queries=[[0.0, 0.5, 0, 0.0]])
        cfg["numerics"][field] = value
        rc = _run("policy-eval", _write(tmp_path, cfg), tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "$.numerics" in err and field in err


class TestOutputs:
    def test_simulate_writes_all_four_files(self, tmp_path):
        out = tmp_path / "out"
        rc = _run("simulate", _write(tmp_path, _rs_config()), out)
        assert rc == 0
        for name in OUT_FILES:
            assert (out / name).exists(), name

    def test_resolved_config_fills_defaults(self, tmp_path):
        out = tmp_path / "out"
        cfg = _rs_config()
        del cfg["numerics"]
        _run("simulate", _write(tmp_path, cfg), out)
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["numerics"]["dt"] == 5e-3
        assert resolved["numerics"]["n_paths"] == 1000
        assert resolved["model"]["phi_variant"] == "integral"
        assert resolved["seed"] == 42
        assert resolved["seed_source"] == "config"

    def test_results_csv_full_precision_floats(self, tmp_path):
        out = tmp_path / "out"
        _run("simulate", _write(tmp_path, _rs_config()), out)
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "path,x_T,theta_T,y_T,J"
        assert len(lines) == 1 + 40
        # 17-significant-digit floats survive a text round trip exactly
        x = lines[1].split(",")[1]
        assert format(float(x), ".17g") == x

    def test_summary_reports_pass(self, tmp_path):
        out = tmp_path / "out"
        _run("simulate", _write(tmp_path, _rs_config()), out)
        text = (out / "summary.txt").read_text()
        assert "experiment: simulate" in text
        assert "seed: 42 (source: config)" in text
        assert text.strip().endswith("result: PASS")

    def test_policy_eval_reference_value(self, tmp_path):
        cfg = _rs_config(experiment="policy-eval",
                         queries=[[0.0, 2.0, 0, 0.0], [0.5, 1.0, 1, 0.3]])
        out = tmp_path / "out"
        rc = _run("policy-eval", _write(tmp_path, cfg), out)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        # regime 0: (mu - r)/((1-gamma) sigma^2) * x = 0.08/0.02 * 2 = 8
        assert rep["queries"][0]["u"] == pytest.approx(8.0, rel=1e-12)

    def test_reduce_markov_weibull_not_applicable(self, tmp_path):
        cfg = _rs_config(experiment="reduce-markov")
        cfg["regime"]["holding"][0] = {"kind": "weibull", "shape": 1.5,
                                       "scale": 0.5}
        out = tmp_path / "out"
        rc = _run("reduce-markov", _write(tmp_path, cfg), out)
        assert rc == 0  # gated out, not failed
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "not-applicable"
        assert "Weibull" in rep["reason"]
        assert "not-applicable" in (out / "summary.txt").read_text()

    def test_reduce_markov_exponential_passes(self, tmp_path):
        cfg = _rs_config(experiment="reduce-markov")
        cfg["numerics"]["n_paths"] = 400
        out = tmp_path / "out"
        rc = _run("reduce-markov", _write(tmp_path, cfg), out)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "ok" and rep["pass"]

    def test_dynkin_passes(self, tmp_path):
        cfg = _rs_config(experiment="dynkin")
        cfg["regime"]["holding"][0] = {"kind": "weibull", "shape": 1.5,
                                       "scale": 0.5}
        cfg["numerics"] = {"n_paths": 300, "dt": 0.005}
        out = tmp_path / "out"
        rc = _run("dynkin", _write(tmp_path, cfg), out)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["functions"]) == 3
        assert all(f["pass"] for f in rep["functions"])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = _write(tmp_path, _rs_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("simulate", cfg_path, a) == 0
        assert _run("simulate", cfg_path, b) == 0
        for name in OUT_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_results(self, tmp_path):
        cfg_path = _write(tmp_path, _rs_config())
        a, b = tmp_path / "a", tmp_path / "b"
        _run("simulate", cfg_path, a)
        _run("simulate", cfg_path, b, "--seed", "7")
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_threads_flag_is_inert(self, tmp_path):
        cfg_path = _write(tmp_path, _rs_config())
        a, b = tmp_path / "a", tmp_path / "b"
        _run("simulate", cfg_path, a)
        _run("simulate", cfg_path, b, "--threads", "4")
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        resolved = json.loads((b / "resolved_config.json").read_text())
        assert resolved["threads"] == 4


class TestSeedPrecedence:
    def test_flag_overrides_config_and_is_logged(self, tmp_path):
        out = tmp_path / "out"
        _run("simulate", _write(tmp_path, _rs_config()), out, "--seed", "7")
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 7
        assert resolved["seed_source"] == "--seed flag"
        text = (out / "summary.txt").read_text()
        assert "seed: 7" in text and "overridden" in text

    def test_env_beats_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMJD_SEED", "99")
        out = tmp_path / "out"
        _run("simulate", _write(tmp_path, _rs_config()), out, "--seed", "7")
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 99
        assert "environment" in resolved["seed_source"]
        assert "SMJD_SEED" in (out / "summary.txt").read_text()

    def test_non_integer_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SMJD_SEED", "pi")
        rc = _run("simulate", _write(tmp_path, _rs_config()), tmp_path / "o")
        assert rc == 2
        assert "SMJD_SEED" in capsys.readouterr().err


class TestFlagRanges:
    """Seeds outside the config schema's [0, 2**64 - 1] and thread counts
    below 1 exit 2 naming the flag or variable, before anything runs."""

    @pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
    def test_seed_flag_out_of_range_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        rc = _run("simulate", _write(tmp_path, _rs_config()), out, "--seed",
                  seed)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--seed" in err and seed in err
        assert not out.exists()

    def test_seed_flag_at_the_range_ends_runs(self, tmp_path):
        cfg_path = _write(tmp_path, _rs_config())
        for seed in ("0", str(2 ** 64 - 1)):
            out = tmp_path / seed
            assert _run("simulate", cfg_path, out, "--seed", seed) == 0
            resolved = json.loads((out / "resolved_config.json").read_text())
            assert resolved["seed"] == int(seed)

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_env_out_of_range_exits_2(self, tmp_path, monkeypatch,
                                           capsys, seed):
        monkeypatch.setenv("SMJD_SEED", seed)
        rc = _run("simulate", _write(tmp_path, _rs_config()), tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "SMJD_SEED" in err and seed in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        rc = _run("simulate", _write(tmp_path, _rs_config()), out,
                  "--threads", threads)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--threads" in err
        assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        cfg_path = _write(tmp_path, _rs_config())
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "smjd.cli", "simulate", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.txt").exists()

    def test_package_runs_as_a_module(self):
        proc = subprocess.run([sys.executable, "-m", "smjd", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: smjd")
