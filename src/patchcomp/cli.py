"""Command-line front end: dispatch, CSV emission, deterministic sweeps."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .analysis import PIPGrid, pip as pip_scan, predict_outcome
from .config import DEFAULTS, RunConfig, apply_env_overrides, read_config
from .dynamics import simulate
from .eigen import (
    assemble_linearization,
    fitness_table,
    invasion_fitness,
    principal_eigenpair,
    resident_self_eigenpair,
)
from .errors import NumericalError, ValidationError
from .grid import format_value
from .landscape import SpeciesTraits, StrategyVector
from .operators import SpeciesLayout
from .steady import monotonicity_report, solve_resident_steady
from .validate import run_validation

COMMANDS = ("steady", "eigen", "fitness", "simulate", "pip", "classify", "sweep", "validate")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged, so in-process runs share it)."""
    parser = argparse.ArgumentParser(
        prog="patchcomp",
        description="Two-species competition on patchy landscapes with interface jumps",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration as JSON and exit")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="path to a JSON configuration")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--resolution", type=float, default=None,
                         help="target grid spacing, overrides the config grid section")
        cmd.add_argument("--workers", type=int, default=None,
                         help="accepted and validated; sweeps run in one process")
    return parser


# flags (and their PATCHCOMP_* variables) that override a config field
_FLAG_FIELDS = {"out": "output_dir", "seed": "seed", "workers": "workers"}


def _load_config(args: dict) -> RunConfig:
    data = read_config(args["config"]) if args.get("config") else {}
    for flag, field in _FLAG_FIELDS.items():
        if args.get(flag) is not None:
            data[field] = args[flag]
    # validated after the overrides, so a bad flag fails like a bad config
    return RunConfig.from_dict(data)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_pair(cfg: RunConfig, name: str, pair) -> int:
    """Write an eigenpair as ``lambda1`` above its eigenfunction's field CSV."""
    out = _outdir(cfg)
    _write(os.path.join(out, name), f"lambda1,{format_value(pair.lambda1)}\n" + pair.phi.to_csv())
    print(f"lambda1 = {format_value(pair.lambda1)}")
    return 0


def _cmd_steady(cfg: RunConfig, grid) -> int:
    u = solve_resident_steady(cfg.landscape, cfg.environment, cfg.resident, grid, cfg.steady)
    out = _outdir(cfg)
    u.write_csv(os.path.join(out, "steady_u.csv"))
    report = monotonicity_report(u, cfg.environment, cfg.resident)
    lines = ["key,value"]
    lines.append("patch_signs," + "|".join(report.patch_signs))
    lines.append(f"boundary_left,{report.boundary_left}")
    lines.append(f"boundary_right,{report.boundary_right}")
    lines.append(
        "interface_derivatives,"
        + "|".join(f"{format_value(a)};{format_value(b)}" for a, b in report.interface_derivatives)
    )
    lines.append(
        "crossovers," + "|".join(f"{i + 1}:{format_value(x)}" for i, x in report.crossovers)
    )
    lines.append(f"expected_pattern,{report.expected_pattern or 'Unclassified'}")
    lines.append(f"monotone,{report.monotone}")
    _write(os.path.join(out, "monotonicity.csv"), "\n".join(lines) + "\n")
    print(f"steady state written to {out}/steady_u.csv")
    return 0


def _cmd_eigen(cfg: RunConfig, grid) -> int:
    if cfg.eigen_potential == "zero":
        pair = principal_eigenpair(assemble_linearization(grid, cfg.mutant, 0.0))
    elif cfg.eigen_potential == "steady-linearization":
        pair = resident_self_eigenpair(
            cfg.landscape, cfg.environment, cfg.resident, grid, cfg.steady
        )
    else:
        return _cmd_fitness(cfg, grid, "eigen.csv")
    return _write_pair(cfg, "eigen.csv", pair)


def _cmd_fitness(cfg: RunConfig, grid, name: str = "fitness.csv") -> int:
    pair = invasion_fitness(
        cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid, cfg.steady
    )
    return _write_pair(cfg, name, pair)


def _cmd_simulate(cfg: RunConfig, grid) -> int:
    record = simulate(
        cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid,
        cfg.sim, steady_config=cfg.steady,
    )
    out = _outdir(cfg)
    diag = record.diagnostics
    lines = [
        "verdict,t_final,steps,converged,time_derivative_norm,"
        "steady_residual_u,steady_residual_v,clip_total,box_violations",
        ",".join(
            [
                record.verdict,
                format_value(record.t_final),
                str(record.steps),
                str(record.converged),
                format_value(diag["time_derivative_norm"]),
                format_value(diag["steady_residual_u"]),
                format_value(diag["steady_residual_v"]),
                format_value(diag["clip_total"]),
                str(diag["box_violations"]),
            ]
        ),
    ]
    _write(os.path.join(out, "outcome.csv"), "\n".join(lines) + "\n")
    record.u_final.write_csv(os.path.join(out, "final_u.csv"))
    record.v_final.write_csv(os.path.join(out, "final_v.csv"))
    if "snapshots" in diag:
        layout = SpeciesLayout(grid, [cfg.resident, cfg.mutant])
        rows = ["t,patch_index,x,u,v"]
        xs = grid.full_x()
        patch_of = grid.patch_index_of_dofs()
        for t, *state in diag["snapshots"]:
            u_full, v_full = layout.expand(np.array(state))
            for j in range(grid.num_dofs):
                rows.append(
                    f"{format_value(t)},{patch_of[j] + 1},{format_value(xs[j])},"
                    f"{format_value(u_full[j])},{format_value(v_full[j])}"
                )
        _write(os.path.join(out, "trajectory.csv"), "\n".join(rows) + "\n")
    print(f"verdict: {record.verdict} (t = {format_value(record.t_final)})")
    return 0


def _cmd_pip(cfg: RunConfig, grid) -> int:
    spec = cfg.raw["pip"]
    resident_scan = np.linspace(
        spec["resident_min"], spec["resident_max"], int(spec["resident_count"])
    )
    mutant_scan = np.linspace(
        spec["mutant_min"], spec["mutant_max"], int(spec["mutant_count"])
    )
    result: PIPGrid = pip_scan(
        resident_scan, mutant_scan, cfg.resident.d_array, cfg.landscape,
        cfg.environment, grid, cfg.steady, cfg.sign_tol,
    )
    out = _outdir(cfg)
    _write(os.path.join(out, "pip.csv"), result.to_csv())
    lam_lines = ["resident_p\\mutant_p," + ",".join(map(format_value, result.mutant_values))]
    for pv, lambdas in zip(result.resident_values, result.lambdas):
        lam_lines.append(format_value(pv) + "," + ",".join(map(format_value, lambdas)))
    _write(os.path.join(out, "pip_lambda.csv"), "\n".join(lam_lines) + "\n")
    print(f"invasibility matrix written to {out}/pip.csv")
    return 0


def _cmd_classify(cfg: RunConfig, grid) -> int:
    prediction = predict_outcome(
        cfg.resident.jump, cfg.mutant.jump, cfg.resident.d_array,
        cfg.mutant.d_array, cfg.environment,
    )
    out = _outdir(cfg)
    _write(os.path.join(out, "prediction.csv"), prediction.to_csv())
    print(
        f"region={prediction.region.value} invade={prediction.invade_when_rare} "
        f"verdict={prediction.global_verdict}"
    )
    return 0


def _cmd_sweep(cfg: RunConfig, grid) -> int:
    spec = cfg.raw["sweep"]
    points = spec["mutant_p"]
    if not isinstance(points, list) or not points:
        raise ValidationError(
            f"sweep.mutant_p: must be a non-empty list of jump vectors, got {points!r}"
        )
    d = spec["mutant_d"]
    if d is None:
        d = cfg.mutant.d
    else:
        if not isinstance(d, list) or len(d) != cfg.landscape.n:
            raise ValidationError(
                f"sweep.mutant_d: must be a list of one diffusion rate per patch, got {d!r}"
            )
        try:
            d = SpeciesTraits(d, cfg.mutant.jump).d
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sweep.mutant_d: {exc}") from exc
    mutants, rows = [], []
    for index, p in enumerate(points):
        try:
            mutant = SpeciesTraits(d, StrategyVector(p))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sweep.mutant_p[{index}]: {exc}") from exc
        mutants.append(mutant)
        prediction = predict_outcome(
            cfg.resident.jump, mutant.jump, cfg.resident.d_array, mutant.d_array,
            cfg.environment,
        )
        rows.append([
            str(index),
            "|".join(format_value(v) for v in mutant.jump.values),
            prediction.region.value,
            prediction.invade_when_rare,
            prediction.global_verdict,
        ])
    header = "index,mutant_p,region,invade,verdict"
    if spec["fitness"]:
        header += ",lambda1"
        (lambdas,) = fitness_table(
            cfg.landscape, cfg.environment, grid, [cfg.resident], mutants, cfg.steady
        )
        for row, lam in zip(rows, lambdas):
            row.append(format_value(lam))
    out = _outdir(cfg)
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    _write(os.path.join(out, "sweep.csv"), text)
    print(f"swept {len(rows)} points -> {out}/sweep.csv")
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    results = run_validation(cfg.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def run_command(argv) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.print_defaults:
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return 0
    if ns.command is None:
        parser.print_help()
        return 1
    try:
        args = apply_env_overrides(vars(ns))
        cfg = _load_config(args)
        if ns.command == "validate":
            return _cmd_validate(cfg)
        grid = cfg.build_grid(args.get("resolution"))
        if ns.command == "steady":
            return _cmd_steady(cfg, grid)
        if ns.command == "eigen":
            return _cmd_eigen(cfg, grid)
        if ns.command == "fitness":
            return _cmd_fitness(cfg, grid)
        if ns.command == "simulate":
            return _cmd_simulate(cfg, grid)
        if ns.command == "pip":
            return _cmd_pip(cfg, grid)
        if ns.command == "classify":
            return _cmd_classify(cfg, grid)
        if ns.command == "sweep":
            return _cmd_sweep(cfg, grid)
        raise ValidationError(f"unknown command {ns.command}")
    except ValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
