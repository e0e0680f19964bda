"""Command-line front end: dispatch, CSV emission, deterministic sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import PIPGrid, pip as pip_scan, predict_outcome
from .config import DEFAULTS, RunConfig, apply_env_overrides, read_config
from .dynamics import simulate
from .eigen import (
    MutantStack,
    ResidentContext,
    assemble_linearization,
    invasion_fitness,
    principal_eigenpair,
    resident_self_eigenpair,
)
from .errors import NumericalError, ValidationError
from .grid import CSV_HEADER
from .landscape import SpeciesTraits, StrategyVector
from .operators import SpeciesLayout
from .steady import monotonicity_report, solve_resident_steady
from .validate import run_validation

COMMANDS = ("steady", "eigen", "fitness", "simulate", "pip", "classify", "sweep", "validate")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_parser() -> argparse.ArgumentParser:
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


def _eigen_csv(lambda1: float, phi) -> str:
    lines = [f"lambda1,{_fmt(lambda1)}", CSV_HEADER]
    patch_of = phi.grid.patch_index_of_dofs()
    xs = phi.grid.full_x()
    for j in range(phi.grid.num_dofs):
        lines.append(f"{patch_of[j] + 1},{_fmt(xs[j])},{_fmt(phi.values[j])}")
    return "\n".join(lines) + "\n"


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
        + "|".join(f"{_fmt(a)};{_fmt(b)}" for a, b in report.interface_derivatives)
    )
    lines.append(
        "crossovers," + "|".join(f"{i + 1}:{_fmt(x)}" for i, x in report.crossovers)
    )
    lines.append(f"expected_pattern,{report.expected_pattern or 'Unclassified'}")
    lines.append(f"monotone,{report.monotone}")
    _write(os.path.join(out, "monotonicity.csv"), "\n".join(lines) + "\n")
    print(f"steady state written to {out}/steady_u.csv")
    return 0


def _cmd_eigen(cfg: RunConfig, grid) -> int:
    if cfg.eigen_potential == "zero":
        op = assemble_linearization(grid, cfg.mutant, 0.0)
        pair = principal_eigenpair(op)
    elif cfg.eigen_potential == "steady-linearization":
        pair = resident_self_eigenpair(
            cfg.landscape, cfg.environment, cfg.resident, grid, cfg.steady
        )
    else:
        pair = invasion_fitness(
            cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid, cfg.steady
        )
    out = _outdir(cfg)
    _write(os.path.join(out, "eigen.csv"), _eigen_csv(pair.lambda1, pair.phi))
    print(f"lambda1 = {_fmt(pair.lambda1)}")
    return 0


def _cmd_fitness(cfg: RunConfig, grid) -> int:
    pair = invasion_fitness(
        cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid, cfg.steady
    )
    out = _outdir(cfg)
    _write(os.path.join(out, "fitness.csv"), _eigen_csv(pair.lambda1, pair.phi))
    print(f"lambda1 = {_fmt(pair.lambda1)}")
    return 0


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
                _fmt(record.t_final),
                str(record.steps),
                str(record.converged),
                _fmt(diag["time_derivative_norm"]),
                _fmt(diag["steady_residual_u"]),
                _fmt(diag["steady_residual_v"]),
                _fmt(diag["clip_total"]),
                str(diag["box_violations"]),
            ]
        ),
    ]
    _write(os.path.join(out, "outcome.csv"), "\n".join(lines) + "\n")
    record.u_final.write_csv(os.path.join(out, "final_u.csv"))
    record.v_final.write_csv(os.path.join(out, "final_v.csv"))
    if "snapshots" in diag:
        layout_u, layout_v = SpeciesLayout(grid, cfg.resident), SpeciesLayout(grid, cfg.mutant)
        rows = ["t,patch_index,x,u,v"]
        xs = grid.full_x()
        patch_of = grid.patch_index_of_dofs()
        for t, u_red, v_red in diag["snapshots"]:
            u_full, v_full = layout_u.expand(u_red), layout_v.expand(v_red)
            for j in range(grid.num_dofs):
                rows.append(
                    f"{_fmt(t)},{patch_of[j] + 1},{_fmt(xs[j])},"
                    f"{_fmt(u_full[j])},{_fmt(v_full[j])}"
                )
        _write(os.path.join(out, "trajectory.csv"), "\n".join(rows) + "\n")
    print(f"verdict: {record.verdict} (t = {_fmt(record.t_final)})")
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
    lam_lines = ["resident_p\\mutant_p," + ",".join(_fmt(v) for v in result.mutant_values)]
    for i, pv in enumerate(result.resident_values):
        lam_lines.append(_fmt(pv) + "," + ",".join(_fmt(v) for v in result.lambdas[i]))
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
    points = spec.get("mutant_p") or []
    if not points:
        raise ValidationError("sweep.mutant_p: provide at least one mutant jump vector")
    d_values = spec.get("mutant_d")
    mutants = [
        SpeciesTraits(d_values if d_values is not None else cfg.mutant.d, StrategyVector(p))
        for p in points
    ]
    rows = []
    for index, mutant in enumerate(mutants):
        prediction = predict_outcome(
            cfg.resident.jump, mutant.jump, cfg.resident.d_array, mutant.d_array,
            cfg.environment,
        )
        rows.append([
            str(index),
            "|".join(_fmt(v) for v in mutant.jump.values),
            prediction.region.value,
            prediction.invade_when_rare,
            prediction.global_verdict,
        ])
    header = "index,mutant_p,region,invade,verdict"
    if spec.get("fitness"):
        header += ",lambda1"
        ustar = solve_resident_steady(
            cfg.landscape, cfg.environment, cfg.resident, grid, cfg.steady
        )
        context = ResidentContext(
            cfg.landscape, cfg.environment, cfg.resident, grid, ustar=ustar
        )
        pairs = (
            pair for stack in MutantStack.chunks(grid, mutants)
            for pair in context.fitness(stack)
        )
        for row, pair in zip(rows, pairs):
            row.append(_fmt(pair.lambda1))
    out = _outdir(cfg)
    _write(os.path.join(out, "sweep.csv"), "\n".join([header] + [",".join(r) for r in rows]) + "\n")
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
