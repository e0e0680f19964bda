import json
import os
from pathlib import Path

import numpy as np
import pytest

import patchcomp.cli
from patchcomp.cli import run_command
from patchcomp.config import DEFAULTS, RunConfig
from patchcomp.errors import ValidationError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run(argv, capsys=None):
    code = run_command([str(a) for a in argv])
    return code


class TestConfig:
    def test_defaults_build(self):
        cfg = RunConfig.from_dict({})
        assert cfg.landscape.n == 2

    def test_round_trip(self):
        cfg = RunConfig.from_dict({"seed": 7, "environment": {"k": [1.0, 3.0]}})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.seed == 7
        assert again.environment.k == (1.0, 3.0)

    def test_unknown_field_path_reported(self):
        with pytest.raises(Exception, match="environment.kk"):
            RunConfig.from_dict({"environment": {"kk": [1.0]}})

    def test_alpha_route(self):
        cfg = RunConfig.from_dict(
            {"resident": {"d": [2.0, 1.0], "alpha": [0.8], "p": None}}
        )
        assert np.allclose(cfg.resident.p_array, [8.0])

    def test_mismatched_environment(self):
        with pytest.raises(Exception, match="per patch"):
            RunConfig.from_dict({"environment": {"r": [1.0], "k": [1.0]}})

    @pytest.mark.parametrize("workers", [0, -2, "x", 1.5])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ValidationError, match="workers:"):
            RunConfig.from_dict({"workers": workers})

    @pytest.mark.parametrize("field", ["check_interval", "snapshot_stride"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_sim_strides_must_be_positive_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"sim: {field}"):
            RunConfig.from_dict({"sim": {field: value}})

    def test_sim_strides_accept_positive_integers(self):
        cfg = RunConfig.from_dict({"sim": {"check_interval": 1, "snapshot_stride": None}})
        assert cfg.sim.check_interval == 1 and cfg.sim.snapshot_stride is None


class TestCommands:
    def test_print_defaults(self, capsys):
        assert run(["--print-defaults"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == set(DEFAULTS)

    def test_steady_single_patch_constant(self, tmp_path, capsys):
        code = run(
            ["steady", "--config", CONFIG_DIR / "single_patch.json", "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "steady_u.csv").read_text().strip().split("\n")
        assert lines[0] == "patch_index,x,value"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert np.abs(np.asarray(values) - 2.0).max() <= 1e-10
        report = (tmp_path / "monotonicity.csv").read_text()
        assert "flat" in report

    def test_classify_reference_row(self, tmp_path, capsys):
        code = run(
            ["classify", "--config", CONFIG_DIR / "above_resident_wins.json", "--out", tmp_path]
        )
        assert code == 0
        body = (tmp_path / "prediction.csv").read_text().strip().split("\n")
        assert body[0] == "region,invade,verdict"
        assert body[1] == "L2,No,ResidentWins"

    def test_fitness_outputs_eigenpair(self, tmp_path, capsys):
        code = run(
            [
                "fitness",
                "--config", CONFIG_DIR / "reference_two_patch.json",
                "--out", tmp_path,
            ]
        )
        assert code == 0
        lines = (tmp_path / "fitness.csv").read_text().strip().split("\n")
        assert lines[0].startswith("lambda1,")
        assert lines[1] == "patch_index,x,value"
        lam = float(lines[0].split(",")[1])
        assert lam > 1e-8  # opposite-side mutant invades

    def test_eigen_default_matches_fitness(self, tmp_path):
        code = run(
            [
                "eigen",
                "--config", CONFIG_DIR / "reference_two_patch.json",
                "--out", tmp_path,
            ]
        )
        assert code == 0
        assert (tmp_path / "eigen.csv").exists()

    def test_eigen_steady_linearization_is_negative(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "reference_two_patch.json").read_text())
        cfg["eigen"] = {"potential": "steady-linearization"}
        cfg["grid"] = {"per_patch": 50}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["eigen", "--config", path, "--out", tmp_path]) == 0
        first = (tmp_path / "eigen.csv").read_text().split("\n")[0]
        assert float(first.split(",")[1]) < 0

    def test_simulate_short_horizon(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "above_coexistence.json").read_text())
        cfg["sim"] = {"t_max": 1.0, "snapshot_stride": 50}
        cfg["grid"] = {"per_patch": 30}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["simulate", "--config", path, "--out", tmp_path])
        assert code == 0
        outcome = (tmp_path / "outcome.csv").read_text().strip().split("\n")
        assert outcome[1].split(",")[0] == "Undetermined"
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "final_u.csv").exists()

    def test_pip_command(self, tmp_path):
        cfg = {
            "pip": {
                "resident_min": 2.5, "resident_max": 3.0, "resident_count": 2,
                "mutant_min": 1.5, "mutant_max": 3.5, "mutant_count": 3,
            },
            "grid": {"per_patch": 40},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["pip", "--config", path, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "pip.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert (tmp_path / "pip_lambda.csv").exists()

    def test_sweep_deterministic_order(self, tmp_path):
        cfg = {
            "sweep": {"mutant_p": [[2.5], [4.0], [1.5]], "fitness": True},
            "grid": {"per_patch": 40},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["sweep", "--config", path, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "index,mutant_p,region,invade,verdict,lambda1"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
        verdicts = [line.split(",")[4] for line in lines[1:]]
        assert verdicts == ["MutantWins", "ResidentWins", "Coexistence"]

    def test_sweep_ignores_workers(self, tmp_path):
        # sweeps run in one process: --workers is validated, then unused
        cfg = {"sweep": {"mutant_p": [[2.5], [4.0], [1.5]], "fitness": True},
               "grid": {"per_patch": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        texts = []
        for workers in (1, 500):
            out = tmp_path / f"w{workers}"
            assert run(["sweep", "--config", path, "--out", out, "--workers", workers]) == 0
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1]
        path.write_text(json.dumps({**cfg, "workers": "x"}))
        assert run(["sweep", "--config", path, "--out", tmp_path]) == 1

    @pytest.mark.parametrize("flag,env", [(["--workers", "-3"], {}),
                                          ([], {"PATCHCOMP_WORKERS": "0"})])
    def test_bad_workers_override_exits_one(self, tmp_path, monkeypatch, capsys, flag, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"mutant_p": [[2.5]]}, "grid": {"per_patch": 20}}))
        assert run(["sweep", "--config", path, "--out", tmp_path, *flag]) == 1
        assert "workers:" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("fitness,solves", [(True, 1), (False, 0)])
    def test_sweep_solves_resident_once(self, tmp_path, monkeypatch, fitness, solves):
        calls = []
        solve = patchcomp.cli.solve_resident_steady

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(patchcomp.cli, "solve_resident_steady", counting)
        cfg = {"sweep": {"mutant_p": [[2.5], [4.0], [1.5]], "fitness": fitness},
               "grid": {"per_patch": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", path, "--out", tmp_path]) == 0
        assert len(calls) == solves
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].endswith(",lambda1") == fitness

    def test_sweep_csv_independent_of_workers(self, tmp_path):
        cfg = {"sweep": {"mutant_p": [[2.5], [4.0], [1.5], [3.2]], "fitness": True},
               "grid": {"per_patch": 30}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run(["sweep", "--config", path, "--out", out, "--workers", workers]) == 0
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run(
                [
                    "fitness",
                    "--config", CONFIG_DIR / "reference_two_patch.json",
                    "--out", out, "--seed", 3,
                ]
            ) == 0
        assert (out_a / "fitness.csv").read_bytes() == (out_b / "fitness.csv").read_bytes()

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"environment": {"r": [1.0], "k": [-1.0]}}))
        assert run(["steady", "--config", path, "--out", tmp_path]) == 1
        assert "environment" in capsys.readouterr().err

    def test_zero_check_interval_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"check_interval": 0, "t_max": 1.0}}))
        assert run(["simulate", "--config", path, "--out", tmp_path]) == 1
        assert "sim: check_interval" in capsys.readouterr().err
        assert not (tmp_path / "outcome.csv").exists()

    @pytest.mark.parametrize(
        "section,field,value",
        [("sim", "scheme", "cn-diffusion"), ("steady", "armijo", 1e-4),
         ("steady", "fallback_dt", 0.1)],
    )
    def test_removed_solver_fields_exit_one(self, tmp_path, capsys, section, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {field: value}}))
        assert run(["steady", "--config", path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert f"unknown configuration field: {section}.{field}" in err
        assert not (tmp_path / "steady_u.csv").exists()

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_newton_iterations_exit_one(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steady": {"max_newton_iters": value}}))
        assert run(["steady", "--config", path, "--out", tmp_path]) == 1
        assert "steady: max_newton_iters" in capsys.readouterr().err
        assert not (tmp_path / "steady_u.csv").exists()

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATCHCOMP_OUT", str(tmp_path / "env_out"))
        assert run(["classify", "--config", CONFIG_DIR / "above_resident_wins.json"]) == 0
        assert (tmp_path / "env_out" / "prediction.csv").exists()

    def test_validate_suite_passes(self, capsys):
        assert run(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all 11 checks passed" in out

    def test_resolution_flag(self, tmp_path):
        code = run(
            [
                "steady",
                "--config", CONFIG_DIR / "single_patch.json",
                "--out", tmp_path, "--resolution", "0.05",
            ]
        )
        assert code == 0
        lines = (tmp_path / "steady_u.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 31  # 1.5 / 0.05 = 30 subintervals
