import json
import os
from pathlib import Path

import numpy as np
import pytest

import patchcomp as pc
import patchcomp.cli
from patchcomp.cli import run_command
from patchcomp.config import DEFAULTS, RunConfig
from patchcomp.errors import ValidationError
from patchcomp.grid import format_value
from patchcomp.operators import expand_reduced

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
        with pytest.raises(ValidationError, match=f"sim.{field}"):
            RunConfig.from_dict({"sim": {field: value}})

    @pytest.mark.parametrize("resident", [{"d": [True, 1.0], "p": [3.0]}, {"d": ["1", 1.0]}])
    def test_vector_entries_must_be_numbers(self, resident):
        # numpy would read them as 1.0, as checked_number never does
        with pytest.raises(ValidationError, match=r"resident: d\[0\] must be a number"):
            RunConfig.from_dict({"resident": resident})

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

    def test_trajectory_rows_are_expanded_snapshots(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "above_coexistence.json").read_text())
        cfg["sim"] = {"t_max": 1.0, "snapshot_stride": 50}
        cfg["grid"] = {"per_patch": 30}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", path, "--out", tmp_path]) == 0
        loaded = RunConfig.load(str(path))
        grid = loaded.build_grid()
        record = pc.simulate(
            loaded.landscape, loaded.environment, loaded.resident, loaded.mutant, grid,
            loaded.sim, steady_config=loaded.steady,
        )
        xs, patch_of = grid.full_x(), grid.patch_index_of_dofs()
        want = ["t,patch_index,x,u,v"]
        for t, u_red, v_red in record.diagnostics["snapshots"]:
            u = expand_reduced(grid, loaded.resident, u_red)
            v = expand_reduced(grid, loaded.mutant, v_red)
            want += [
                ",".join([format_value(t), str(patch_of[j] + 1),
                          *(format_value(x) for x in (xs[j], u[j], v[j]))])
                for j in range(grid.num_dofs)
            ]
        assert len(want) == 2 * grid.num_dofs + 1
        assert (tmp_path / "trajectory.csv").read_text().splitlines() == want

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
        # the sweep's fitness goes through eigen.fitness_table, whose resident
        # context makes one stacked steady solve; count the residents in it
        calls = []
        solve = patchcomp.eigen.solve_resident_steady_states

        def counting(landscape, env, residents, *args, **kwargs):
            calls.extend(residents)
            return solve(landscape, env, residents, *args, **kwargs)

        monkeypatch.setattr(patchcomp.eigen, "solve_resident_steady_states", counting)
        cfg = {"sweep": {"mutant_p": [[2.5], [4.0], [1.5]], "fitness": fitness},
               "grid": {"per_patch": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", path, "--out", tmp_path]) == 0
        assert len(calls) == solves
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].endswith(",lambda1") == fitness

    @pytest.mark.parametrize("mutant_d", ["ab", [1.0], [1.0, 1.0, 1.0], [1.0, "x"],
                                          [1.0, -2.0], [1.0, None]])
    def test_bad_mutant_d_is_named_on_its_own(self, tmp_path, capsys, mutant_d):
        # the mutant diffusion vector is checked once, before any point uses it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "sweep": {"mutant_p": [[2.5], [4.0]], "mutant_d": mutant_d},
            "grid": {"per_patch": 20},
        }))
        assert run(["sweep", "--config", path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "configuration error: sweep.mutant_d: " in err
        assert "mutant_p" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_in_process_runs_share_one_parser(self, tmp_path, capsys):
        # the parser is built once per process; a failed run between two
        # sweeps changes neither their exit codes nor their CSVs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"sweep": {"mutant_p": [[2.5], [4.0], [1.5]], "fitness": True},
             "grid": {"per_patch": 20}}
        ))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {"mutant_p": "ab"}}))
        first = run(["sweep", "--config", path, "--out", tmp_path / "a"])
        failed = run(["sweep", "--config", bad, "--out", tmp_path / "bad", "--seed", 5])
        second = run(["sweep", "--config", path, "--out", tmp_path / "b"])
        assert (first, failed, second) == (0, 1, 0)
        assert patchcomp.cli._build_parser() is patchcomp.cli._build_parser()
        texts = [(tmp_path / out / "sweep.csv").read_bytes() for out in ("a", "b")]
        assert texts[0] == texts[1]

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
        assert "sim.check_interval" in capsys.readouterr().err
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
        assert "steady.max_newton_iters" in capsys.readouterr().err
        assert not (tmp_path / "steady_u.csv").exists()

    @pytest.mark.parametrize(
        "command,config,flags,env,path",
        [
            ("pip", {"eigen": {"sign_tol": -1}}, [], {}, "eigen.sign_tol"),
            ("fitness", {"eigen": {"sign_tol": "x"}}, [], {}, "eigen.sign_tol"),
            ("steady", {"grid": {"per_patch": "x"}}, [], {}, "grid.per_patch"),
            ("steady", {"grid": {"per_patch": 20.9}}, [], {}, "grid.per_patch"),
            ("steady", {"grid": {"per_patch": [20, 2.5]}}, [], {}, "grid.per_patch[1]"),
            ("steady", {"grid": {"target_h": float("nan")}}, [], {}, "grid.target_h"),
            ("pip", {"pip": {"resident_count": "x"}}, [], {}, "pip.resident_count"),
            ("pip", {"pip": {"mutant_count": 0}}, [], {}, "pip.mutant_count"),
            ("pip", {"pip": {"mutant_min": 0.0}}, [], {}, "pip.mutant_min"),
            ("pip", {"pip": {"resident_max": float("inf")}}, [], {}, "pip.resident_max"),
            ("validate", {"seed": True}, [], {}, "seed"),
            ("validate", {"seed": -1}, [], {}, "seed"),
            ("steady", {"steady": {"newton_tol": True}}, [], {}, "steady.newton_tol"),
            ("steady", {"steady": {"newton_tol": float("nan")}}, [], {}, "steady.newton_tol"),
            ("simulate", {"sim": {"dt": True}}, [], {}, "sim.dt"),
            ("simulate", {"sim": {"dt": float("nan")}}, [], {}, "sim.dt"),
            ("simulate", {"sim": {"t_max": None}}, [], {}, "sim.t_max"),
            ("simulate", {"sim": {"steady_tol": True}}, [], {}, "sim.steady_tol"),
            ("simulate", {"sim": {"extinction_eps": -1e-6}}, [], {}, "sim.extinction_eps"),
            ("steady", {}, ["--resolution", "nan"], {}, "resolution"),
            ("steady", {}, [], {"PATCHCOMP_RESOLUTION": "-0.1"}, "resolution"),
            # shapes: a section that is not an object, a field of the wrong kind
            ("steady", {"resident": {"d": 1.0}}, [], {}, "resident.d"),
            ("steady", {"resident": 5}, [], {}, "resident"),
            ("steady", {"landscape": 5}, [], {}, "landscape"),
            ("sweep", {"sweep": {"mutant_p": "ab"}}, [], {}, "sweep.mutant_p"),
            ("sweep", {"workers": True}, [], {}, "workers"),
            ("sweep", {"sweep": {"mutant_p": [[2.5]], "fitness": "no"}}, [], {},
             "sweep.fitness"),
            ("sweep", {"sweep": {"mutant_p": [[2.5]], "mutant_d": "ab"}}, [], {},
             "sweep.mutant_d"),
            ("sweep", {"sweep": {"mutant_p": [[2.5]], "mutant_d": [1.0]}}, [], {},
             "sweep.mutant_d"),
        ],
    )
    def test_bad_numbers_exit_one_naming_the_field(
        self, tmp_path, monkeypatch, capsys, command, config, flags, env, path
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out, *flags]) == 1
        assert f"configuration error: {path}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"resident": {"d": [True, 1.0]}}, "resident: d[0]"),
            ({"mutant": {"d": [1.0, "2"]}}, "mutant: d[1]"),
            ({"environment": {"r": [1.0, True]}}, "environment: r[1]"),
            ({"environment": {"k": ["1", 2.0]}}, "environment: k[0]"),
            ({"landscape": {"boundaries": [0.0, True, 2.0]}},
             "landscape.boundaries: boundaries[1]"),
            ({"mutant": {"p": [True]}}, "mutant: p[0]"),
            ({"resident": {"p": None, "alpha": ["0.5"]}}, "resident: alpha[0]"),
            ({"sweep": {"mutant_p": [[2.5], [True]]}}, "sweep.mutant_p[1]: strategy values[0]"),
            ({"mutant": {"p": None, "alpha": [True]}}, "mutant: alpha[0]"),
        ],
    )
    def test_bool_and_string_vector_entries_exit_one(self, tmp_path, capsys, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"per_patch": 20}, **config}))
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        assert f"configuration error: {named} must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"resident": {"p": [float("nan")]}}, "resident: p"),
            ({"mutant": {"p": None, "alpha": [float("nan")]}}, "mutant: alpha"),
            ({"resident": {"d": [1.0, float("nan")]}}, "resident: d"),
        ],
    )
    def test_non_finite_vector_entries_exit_one_naming_the_field(
        self, tmp_path, capsys, config, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"per_patch": 20}, **config}))
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {named} must contain only finite values" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,flags,env,message,kind",
        [
            ({"grid": {"per_patch": [10, 20, 30]}}, [], {},
             "grid.per_patch: need one subinterval count per patch", ValidationError),
            ({"grid": {"per_patch": 3}}, [], {},
             "grid.per_patch: patch 1 receives only 3 subintervals", pc.GridResolutionError),
            ({"grid": {"target_h": 0.5}}, [], {},
             "grid.target_h: patch 1 receives only 2 subintervals", pc.GridResolutionError),
            ({"grid": {"target_h": 0.01}}, ["--resolution", "0.5"], {},
             "resolution: patch 1 receives only 2 subintervals", pc.GridResolutionError),
            ({}, [], {"PATCHCOMP_RESOLUTION": "0.5"},
             "resolution: patch 1 receives only 2 subintervals", pc.GridResolutionError),
        ],
    )
    def test_grid_errors_name_their_field(
        self, tmp_path, monkeypatch, capsys, config, flags, env, message, kind
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert run(["steady", "--config", cfg, "--out", out, *flags]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()
        resolution = 0.5 if flags or env else None
        with pytest.raises(ValidationError, match=message) as raised:
            RunConfig.from_dict(config).build_grid(resolution)
        assert type(raised.value) is kind

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
