"""Config schema (fail-closed) and the command line front end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmplab
from rmplab import cli
from rmplab.cli import main
from rmplab.config import ESTIMATOR_PARAMS, config_from_dict, config_hash, load_config
from rmplab.engine import LinearModel, NonlinearModel
from rmplab.errors import ConfigInvalidError
from rmplab.runner import STAGES
from rmplab.weak import TestFunction

ROOT = Path(__file__).resolve().parents[1]

def base_raw() -> dict:
    return {
        "schema_version": 1,
        "model": {
            "kind": "linear",
            "a": 1.0,
            "x0": 1.0,
            "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
            "additive": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
        },
        "grid": {"t_max": 2.0, "dt": 0.02},
        "ensemble": {"n_paths": 64, "master_seed": 11},
        "workers": 1,
        "outputs": {"directory": "out", "formats": ["json"]},
        "estimators": [{"name": "moments", "p": [0.5, 1.0], "window": [1.0, 2.0]}],
    }


def pareto_raw() -> dict:
    """base_raw with a = 2 and Pareto forcing of index 1.5 < beta_c = 4."""
    raw = base_raw()
    raw["model"]["a"] = 2.0
    raw["model"]["additive"] = {"kind": "pareto_transformed_ou", "tau_c": 0.5, "tail_index": 1.5}
    return raw


class TestSchema:
    def test_round_trip(self):
        cfg = config_from_dict(base_raw())
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert config_hash(again) == config_hash(cfg)

    def test_hash_tracks_content(self):
        cfg = config_from_dict(base_raw())
        raw = base_raw()
        raw["ensemble"]["master_seed"] = 12
        assert config_hash(config_from_dict(raw)) != config_hash(cfg)

    def test_parsed_model_and_grid(self):
        cfg = config_from_dict(base_raw())
        assert isinstance(cfg.model, LinearModel)
        assert cfg.model.beta_c == pytest.approx(2.0)
        assert cfg.grid.horizon == pytest.approx(2.0)
        assert cfg.grid.n_steps == 100
        assert cfg.estimators[0].get("p") == (0.5, 1.0)

    def test_dt_defaults_from_scales(self):
        raw = base_raw()
        del raw["grid"]["dt"]
        cfg = config_from_dict(raw)
        assert cfg.grid.dt <= 0.5 / 20  # resolves the shortest correlation time

    def test_nonlinear_model(self):
        raw = base_raw()
        raw["model"] = {
            "kind": "nonlinear",
            "a": 1.0,
            "x0": 2.0,
            "nonlinearity": "sin_modulated",
            "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
            "envelope": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
        }
        cfg = config_from_dict(raw)
        assert isinstance(cfg.model, NonlinearModel)
        assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: r.update(extra=1), "extra"),
            (lambda r: r["model"].update(bogus=1), "bogus"),
            (lambda r: r["grid"].update(step=1), "step"),
            (lambda r: r["ensemble"].update(paths=1), "paths"),
            (lambda r: r["outputs"].update(fmt="csv"), "fmt"),
            (lambda r: r["estimators"][0].update(alpha=1), "alpha"),
            (lambda r: r["model"]["multiplicative"].update(mean=0), "mean"),
        ],
    )
    def test_unknown_fields_rejected_everywhere(self, mutate, needle):
        raw = base_raw()
        mutate(raw)
        with pytest.raises(ConfigInvalidError, match=needle):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("schema_version",), 2),
            (("ensemble", "n_paths"), 0),
            (("ensemble", "n_paths"), True),
            (("ensemble", "n_paths"), 10.0),
            (("ensemble", "master_seed"), -1),
            (("workers",), 0),
            (("grid", "t_max"), -1.0),
            (("outputs", "formats"), ["xml"]),
            (("outputs", "formats"), []),
            (("outputs", "directory"), ""),
        ],
    )
    def test_bad_values_rejected(self, path, value):
        raw = base_raw()
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigInvalidError):
            config_from_dict(raw)

    def test_unknown_estimator_name(self):
        raw = base_raw()
        raw["estimators"] = [{"name": "autocorrelation"}]
        with pytest.raises(ConfigInvalidError, match="unknown estimator"):
            config_from_dict(raw)

    def test_order_must_stay_below_additive_tail(self):
        raw = base_raw()
        raw["model"]["additive"] = {
            "kind": "pareto_transformed_ou",
            "tail_index": 3.0,
            "scale": 1.0,
            "tau_c": 1.0,
        }
        raw["estimators"] = [{"name": "moments", "p": [2.5]}]
        config_from_dict(raw)  # strictly below the tail index: fine
        raw["estimators"] = [{"name": "moments", "p": [3.0]}]
        with pytest.raises(ConfigInvalidError, match="tail index"):
            config_from_dict(raw)

    def test_nonpositive_order_rejected(self):
        raw = base_raw()
        raw["estimators"] = [{"name": "moments", "p": [0.5, -1.0]}]
        with pytest.raises(ConfigInvalidError, match="positive"):
            config_from_dict(raw)

    def test_hill_p_max_must_stay_below_transition(self):
        raw = base_raw()
        raw["estimators"] = [{"name": "hill", "p_max": 2.0}]
        with pytest.raises(ConfigInvalidError, match="transition"):
            config_from_dict(raw)
        raw["estimators"] = [{"name": "hill", "p_max": 1.0}]
        config_from_dict(raw)

    def test_hill_p_max_must_stay_below_the_additive_tail_index(self):
        raw = pareto_raw()
        for p_max in (1.5, 2.0):  # below beta_c = 4.0, not below the index 1.5
            raw["estimators"] = [{"name": "hill", "p_max": p_max}]
            with pytest.raises(ConfigInvalidError, match="additive tail index 1.5"):
                config_from_dict(raw)
        raw["estimators"] = [{"name": "hill", "p_max": 1.0}]
        config_from_dict(raw)

    def test_windows_reaching_partly_past_the_horizon_load(self):
        raw = base_raw()
        raw["estimators"] = [
            {"name": "moments", "p": [0.5], "window": [1.0, 50.0]},
            {"name": "dt_fit", "window": [1.9, 5.0]},
            {"name": "beta", "p_grid": [1.0, 3.0], "horizon": 1.0, "window": [0.5, 2.0]},
        ]
        config_from_dict(raw)

    def test_converge_functions_round_trip_as_objects(self):
        raw = base_raw()
        functions = [
            {"kind": "abs_power", "alpha": 0.5, "z_imag": 1.0},
            {"kind": "lipschitz_table", "xs": [-1.0, 0.0, 2.0], "ys": [1.0, 0.0, 4.0]},
            {"kind": "bounded_continuous", "xs": [0, 1], "ys": [0, 1]},
        ]
        raw["estimators"].append({"name": "converge", "functions": functions, "times": [0.5, 1.0]})
        cfg = config_from_dict(raw)
        parsed = cfg.estimators[1].get("functions")
        assert all(isinstance(f, TestFunction) for f in parsed)
        assert [f.kind for f in parsed] == [f["kind"] for f in functions]
        assert parsed[0].z == 1j and parsed[2].xs == (0.0, 1.0)
        written = cfg.to_dict()["estimators"][1]["functions"]
        assert written == [
            {"kind": "abs_power", "alpha": 0.5, "z_real": 0.0, "z_imag": 1.0},
            {"kind": "lipschitz_table", "xs": [-1.0, 0.0, 2.0], "ys": [1.0, 0.0, 4.0]},
            {"kind": "bounded_continuous", "xs": [0.0, 1.0], "ys": [0.0, 1.0]},
        ]
        for again in (config_from_dict(cfg.to_dict()), config_from_dict(json.loads(cfg.to_json()))):
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "function,needle",
        [
            ({"kind": "cosine"}, "kind"),
            ([["kind", "abs_power"]], "kind"),
            ({"kind": "abs_power", "alpha": -1.0}, "alpha"),
            ({"kind": "abs_power", "alpha": "0.5"}, "alpha"),
            ({"kind": "abs_power", "xs": [0.0, 1.0]}, "xs"),
            ({"kind": "lipschitz_table", "xs": [0.0, 1.0]}, "ys"),
            ({"kind": "lipschitz_table", "xs": [0.0, "1"], "ys": [0.0, 1.0]}, "xs"),
            ({"kind": "bounded_continuous", "xs": [1.0, 0.0], "ys": [0.0, 1.0]}, "increasing"),
        ],
    )
    def test_bad_converge_functions_rejected_at_load(self, function, needle):
        raw = base_raw()
        raw["estimators"] = [{"name": "converge", "functions": [function], "times": [0.5, 1.0]}]
        with pytest.raises(ConfigInvalidError, match=needle):
            config_from_dict(raw)

    def test_estimator_values_at_their_limits_load(self):
        raw = base_raw()
        raw["estimators"] = [
            {"name": "condition1", "p": [0.5], "nodes": 2, "mc_n": 0},
            {"name": "b_equals_h", "replicates": 1, "n": 1},
            {"name": "inequalities", "trials": 1, "p": [1.0], "n": 1},
            {"name": "hill", "k": None, "n": None},
            {"name": "beta", "p_grid": [1.0, 2.0]},
        ]
        cfg = config_from_dict(raw)
        assert cfg.estimators[0].get("nodes") == 2
        assert cfg.estimators[3].get("k") is None
        assert cfg.estimators[4].get("p_grid") == (1.0, 2.0)

    def test_repeated_outputs_rejected(self):
        x = {"name": "moments", "p": [0.5]}
        a = {"name": "moments", "source": "A", "p": [0.5]}
        c1 = {"name": "condition1", "p": [0.5]}
        raw = base_raw()
        raw["estimators"] = [x, a, c1]  # one artifact name per moments source: fine
        config_from_dict(raw)
        for repeat in ({"name": "moments", "source": "X", "p": [1.0]}, dict(c1, p=[1.0])):
            raw["estimators"] = [x, a, c1, repeat]
            with pytest.raises(ConfigInvalidError, match="overwrite"):
                config_from_dict(raw)

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "rmpbench" / "workloads").glob("*.json")) + [ROOT / "README.md"],
        ids=lambda p: p.name,
    )
    def test_shipped_configs_load_and_round_trip(self, path):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".md":
            raw = json.loads(text.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0])
        else:
            raw = json.loads(text)["config"]
        cfg = config_from_dict(raw)
        assert cfg.estimators
        again = config_from_dict(json.loads(cfg.to_json()))
        assert again == cfg and again.to_json() == cfg.to_json()

    def test_load_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigInvalidError, match="JSON"):
            load_config(bad)
        with pytest.raises(ConfigInvalidError, match="cannot read"):
            load_config(tmp_path / "absent.json")


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestCli:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        raw = base_raw()
        raw["outputs"]["formats"] = ["csv", "json", "binary"]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "run1"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("ensemble_X.csv", "ensemble_X.bin", "simulate.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert {a["path"] for a in manifest["artifacts"]} >= {"ensemble_X.csv", "simulate.json"}

    def test_moments_p_override(self, tmp_path):
        cfg_path = write_config(tmp_path, base_raw())
        out = tmp_path / "run2"
        code = main(
            ["moments", "--config", str(cfg_path), "--out", str(out), "--p", "0.25,0.75"]
        )
        assert code == 0
        payload = json.loads((out / "moments_X.json").read_text())
        assert payload["p_values"] == [0.25, 0.75]

    def test_verify_fail_exits_one(self, tmp_path, capsys):
        raw = base_raw()
        raw["estimators"] = [
            {"name": "condition1", "p": [1.0], "t_max": 10.0, "ratio_budget": 1.0001}
        ]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "run3"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "condition1: FAIL" in capsys.readouterr().out

    def test_report_aggregates(self, tmp_path, capsys):
        raw = base_raw()
        raw["estimators"] = [{"name": "condition1", "p": [0.5, 1.0], "t_max": 10.0}]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "run4"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"] == "PASS"
        assert report["verdicts"] == {"condition1": "PASS"}
        assert "condition1" in report["verify.json"]

    def test_report_propagates_failure(self, tmp_path):
        raw = base_raw()
        raw["estimators"] = [
            {"name": "condition1", "p": [1.0], "t_max": 10.0, "ratio_budget": 1.0001}
        ]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "run5"
        main(["verify", "--config", str(cfg_path), "--out", str(out)])
        assert main(["report", "--out", str(out)]) == 1

    def test_stage_without_estimator_is_an_error(self, tmp_path, capsys):
        names = sorted(n for stage in STAGES.values() for n in stage)
        assert names == sorted(ESTIMATOR_PARAMS)  # every estimator runs in exactly one stage
        for stage, wanted in STAGES.items():
            if stage == "simulate":
                continue
            raw = base_raw()
            raw["estimators"] = [
                {"name": "condition1", "p": [0.5]} if stage == "moments" else raw["estimators"][0]
            ]
            cfg_path = write_config(tmp_path, raw, name=f"{stage}.json")
            out = tmp_path / stage
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "declares no estimator" in err and ", ".join(wanted) in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "stage,request_,needle",
        [
            ("verify", {"name": "b_equals_h", "replicates": 0}, "b_equals_h.replicates"),
            ("verify", {"name": "b_equals_h", "replicates": True}, "b_equals_h.replicates"),
            ("verify", {"name": "inequalities", "trials": 0}, "inequalities.trials"),
            ("verify", {"name": "inequalities", "trials": 2.5}, "inequalities.trials"),
            ("verify", {"name": "inequalities", "trials": "many"}, "inequalities.trials"),
            ("verify", {"name": "inequalities", "n": 0}, "inequalities.n"),
            ("verify", {"name": "inequalities", "p": []}, "inequalities.p"),
            ("verify", {"name": "condition1", "p": []}, "condition1.p"),
            ("verify", {"name": "condition1", "p": [0.5], "nodes": 1}, "condition1.nodes"),
            ("verify", {"name": "condition1", "p": [0.5], "mc_n": -1}, "condition1.mc_n"),
            ("beta", {"name": "hill", "k": 0}, "hill.k"),
            ("beta", {"name": "hill", "n": 0}, "hill.n"),
            ("beta", {"name": "beta", "p_grid": [1.0]}, "beta.p_grid"),
            ("moments", {"name": "moments", "p": []}, "moments.p"),
            ("converge", {"name": "converge", "functions": [], "times": [0.5, 1.0]}, "functions"),
            (
                "converge",
                {"name": "converge", "functions": [{"kind": "abs_power"}], "times": []},
                "converge.times",
            ),
            ("beta", {"name": "green_kubo"}, "green_kubo.window"),
            ("beta", {"name": "green_kubo", "window": [1.0, 2.0]}, "green_kubo.window"),
            ("beta", {"name": "dt_fit"}, "dt_fit.window"),
            ("beta", {"name": "dt_fit", "window": [1.0]}, "dt_fit.window"),
            ("moments", {"name": "moments", "p": [0.5], "window": [1.0]}, "moments.window"),
            ("moments", {"name": "moments", "p": [0.5], "window": [2.0, 1.0]}, "moments.window"),
            ("beta", {"name": "beta", "p_grid": [1.0, 3.0], "window": [1.0]}, "beta.window"),
            ("beta", {"name": "beta", "p_grid": [1.0, 3.0], "horizon": -1.0}, "beta.horizon"),
            ("beta", {"name": "hill", "p_max": "1"}, "hill.p_max"),
            ("beta", {"name": "hill", "t_star": -1.0}, "hill.t_star"),
            ("verify", {"name": "b_equals_h", "level": "x"}, "b_equals_h.level"),
            ("verify", {"name": "b_equals_h", "level": 1.0}, "b_equals_h.level"),
            ("verify", {"name": "b_equals_h", "t": -1.0}, "b_equals_h.t"),
            (
                "verify",
                {"name": "condition1", "p": [0.5], "ratio_budget": "big"},
                "condition1.ratio_budget",
            ),
            ("verify", {"name": "condition1", "p": [0.5], "t_max": -1.0}, "condition1.t_max"),
            ("verify", {"name": "condition1", "p": [0.5], "t_max": None}, "condition1.t_max"),
            (
                "converge",
                {"name": "converge", "functions": [{"kind": "abs_power"}], "times": [0.5, 1.0],
                 "t_star": -1.0},
                "converge.t_star",
            ),
            (
                "converge",
                {"name": "converge", "functions": [{"kind": "abs_power"}], "times": [0.5, 1.0],
                 "mode": "bogus"},
                "converge.mode",
            ),
            (
                "converge",
                {"name": "converge", "functions": [{"kind": "abs_power"}], "times": [1.0]},
                "converge.times",
            ),
            (
                "converge",
                {"name": "converge", "functions": [{"kind": "abs_power"}], "times": [-1.0, 1.0]},
                "converge.times",
            ),
            ("moments", {"name": "moments", "p": [0.5], "window": [-1.0, 1.0]}, "moments.window"),
            ("beta", {"name": "beta", "p_grid": [1.0, 3.0], "window": [-0.5, 1.0]}, "beta.window"),
            ("beta", {"name": "dt_fit", "window": [-5.0, 1.0]}, "dt_fit.window"),
            # fit windows that start past the 2.0 horizon (beta: past its own)
            (
                "moments",
                {"name": "moments", "p": [0.5], "window": [10.0, 50.0]},
                ("moments.window", "WINDOW_TOO_SHORT"),
            ),
            ("beta", {"name": "dt_fit", "window": [2.5, 5.0]}, ("dt_fit.window", "WINDOW_TOO_SHORT")),
            (
                "beta",
                {"name": "beta", "p_grid": [1.0, 3.0], "window": [3.0, 4.0]},
                ("beta.window", "WINDOW_TOO_SHORT"),
            ),
            (
                "beta",
                {"name": "beta", "p_grid": [1.0, 3.0], "horizon": 1.0, "window": [1.5, 2.0]},
                ("beta.window", "WINDOW_TOO_SHORT"),
            ),
        ],
    )
    def test_bad_estimator_values_exit_two_before_any_work(
        self, tmp_path, capsys, stage, request_, needle
    ):
        needle, code = needle if isinstance(needle, tuple) else (needle, "CONFIG_INVALID")
        raw = base_raw()
        raw["estimators"] = [request_]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "x"
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[{code}]" in err and needle in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_beta_horizon_under_half_a_step_reports_a_short_window(self, tmp_path, capsys):
        # horizon / dt rounds to 0 steps; the run takes one and its fit window is empty
        raw = base_raw()
        raw["estimators"] = [{"name": "beta", "p_grid": [1.0, 3.0], "horizon": 1e-6}]
        cfg_path = write_config(tmp_path, raw)
        assert main(["beta", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "WINDOW_TOO_SHORT" in err and "Traceback" not in err

    def test_config_errors_exit_two(self, tmp_path, capsys):
        raw = base_raw()
        raw["typo"] = 1
        assert main(["simulate", "--config", str(write_config(tmp_path, raw))]) == 2

        bad = tmp_path / "broken.json"
        bad.write_text("{]")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "CONFIG_INVALID" in err

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: r["ensemble"].update(master_seed=2**70), "master_seed"),
            (lambda r: r["estimators"][0].update(save_every=7), "save_every"),
            (lambda r: r["estimators"][0].update(source="Q"), "source"),
        ],
    )
    def test_values_that_failed_mid_run_exit_two(self, tmp_path, capsys, mutate, needle):
        raw = base_raw()  # 100 grid steps
        mutate(raw)
        with pytest.raises(ConfigInvalidError, match=needle):
            config_from_dict(raw)
        cfg_path = write_config(tmp_path, raw)
        assert main(["moments", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "CONFIG_INVALID" in err and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", [None, [1.0, 2.0]])
    def test_all_flagged_ensemble_exits_two(self, tmp_path, capsys, window):
        raw = base_raw()
        raw["model"]["a"] = -10.0  # every path leaves the exponent budget
        raw["grid"]["t_max"] = 80.0
        raw["ensemble"]["n_paths"] = 8
        raw["estimators"] = [{"name": "moments", "p": [0.5, 1.0]}]
        if window is not None:
            raw["estimators"][0]["window"] = window
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "x"
        assert main(["moments", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "EMPTY_INPUT" in err and "Traceback" not in err
        assert not (out / "moments_X.json").exists()

    def test_unwritable_artifact_exits_two(self, tmp_path, capsys):
        raw = base_raw()
        raw["outputs"]["formats"] = ["csv"]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "o2"
        (out / "ensemble_X.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "IO_FAILURE" in err and "ensemble_X.csv" in err
        assert "Traceback" not in err

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_raw())
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "IO_FAILURE" in err and "output directory" in err
        assert "Traceback" not in err

    def test_unexpected_error_exits_two_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken_run(*args, **kwargs):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "run", broken_run)  # the runner.run binding the CLI calls
        cfg_path = write_config(tmp_path, base_raw())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "error [ERROR]: RuntimeError: simulated fault\n"

    def test_save_every_must_be_a_positive_integer(self):
        for name, extra in (("moments", {"p": [0.5]}), ("beta", {"p_grid": [1.0, 2.0]})):
            for bad in (0, -4, 2.0, True):
                raw = base_raw()
                raw["estimators"] = [dict(name=name, save_every=bad, **extra)]
                with pytest.raises(ConfigInvalidError, match="save_every"):
                    config_from_dict(raw)
        raw = base_raw()
        raw["estimators"][0]["save_every"] = 4  # divides the 100 grid steps
        assert config_from_dict(raw).estimators[0].get("save_every") == 4

    def test_largest_seed_runs_estimators_on_derived_seeds(self, tmp_path):
        # hill draws from master_seed + 1, which wraps to stream seed 0
        raw = base_raw()
        raw["ensemble"]["master_seed"] = 2**64 - 1
        raw["estimators"] = [{"name": "hill", "n": 200, "k": 20, "p_max": 1.0}]
        cfg_path = write_config(tmp_path, raw)
        assert main(["beta", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0

    def test_hill_targets_the_heavy_forcing_tail(self, tmp_path):
        raw = pareto_raw()
        raw["estimators"] = [{"name": "hill", "n": 200, "k": 20, "p_max": 1.0}]
        out = tmp_path / "x"
        assert main(["beta", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
        assert json.loads((out / "beta.json").read_text())["hill"]["analytic"] == 1.5

    def test_seed_and_n_paths_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, base_raw())
        out = tmp_path / "run6"
        main(
            [
                "simulate", "--config", str(cfg_path), "--out", str(out),
                "--seed", "123", "--n-paths", "17", "--t-max", "1.0",
            ]
        )
        meta = json.loads((out / "simulate.json").read_text())
        assert meta["master_seed"] == 123
        assert meta["n_paths"] == 17
        assert meta["t_max"] == 1.0

    def test_worker_count_does_not_change_artifacts(self, tmp_path):
        raw = base_raw()
        raw["ensemble"]["n_paths"] = 48
        raw["outputs"]["formats"] = ["csv", "binary"]
        cfg_path = write_config(tmp_path, raw)
        digests = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert (
                main(
                    [
                        "simulate", "--config", str(cfg_path),
                        "--out", str(out), "--workers", str(workers),
                    ]
                )
                == 0
            )
            manifest = json.loads((out / "manifest.json").read_text())
            digests[workers] = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        assert digests[1] == digests[2]


_NO_SCIPY_RUN = """
import json, sys
from pathlib import Path
import rmplab.cli
work = Path(sys.argv[1])
for name, raw in json.loads(sys.argv[2]).items():
    path = work / (name + ".json")
    path.write_text(json.dumps(raw))
    for command in ("simulate", "moments"):
        code = rmplab.cli.main([command, "--config", str(path), "--out", str(work / name)])
        assert code == 0, (name, command, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_gaussian_and_nonlinear_runs_import_no_scipy(tmp_path):
    nonlinear = base_raw()
    nonlinear["model"] = {
        "kind": "nonlinear",
        "a": 1.0,
        "x0": 1.0,
        "nonlinearity": "sin_modulated",
        "multiplicative": {"kind": "ou", "sigma": 1.0, "tau_c": 0.5},
        "envelope": {"kind": "ou", "sigma": 0.5, "tau_c": 1.0},
    }
    linear = base_raw()
    linear["outputs"]["formats"] = ["csv", "json", "binary"]
    src = str(Path(rmplab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path),
         json.dumps({"linear": linear, "nonlinear": nonlinear})],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert not loaded & {"scipy.signal", "scipy.integrate", "scipy.stats", "scipy.special"}
