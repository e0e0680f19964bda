#!/usr/bin/env python3
"""Time patchcomp layer by layer and write the results as JSON.

    python3 scripts/bench_layers.py [--out BENCH.json] [--repeats 7]

Run from the root of a source checkout; the package is imported from its
``src/``.  Each figure is the median of ``--repeats`` timed repeats (at least
5) after one untimed warm-up call, in milliseconds, on the reference two-patch
pair (resident p = 3, mutant p = 2.5, capacity ratio 2).  The layers:

- ``assembly``: ``assemble_diffusion`` of one species;
- ``steady``: the resident's damped-Newton steady solve;
- ``fitness``: on a grid built inside each timed call (its index arrays
  are built lazily, so their cost lands in the solves), as for a new
  landscape, at 201, 801 and 1,601 reduced DOFs: the resident's steady
  solve alone (``steady``) and ``invasion_fitness`` of the mutant against
  the resident (``fitness``, that steady solve included);
- ``steady_stack``: the steady states of R = 1, 10 and 32 residents
  (strategies spread over 1.2-4) at 201 and 1,601 reduced DOFs, as one
  stacked ``solve_resident_steady_states`` call and as a loop of single
  ``solve_resident_steady`` calls;
- ``eigen``: one ``principal_eigenpair`` solve, and ``principal_eigenpairs``
  on stacks of M = 1, 10 and 16 mutants' linearizations (per stack and per
  operator);
- ``eigen_stack``: ``principal_eigenpairs`` on the stacks the scans make,
  M = 81 linearizations at 201 reduced DOFs (one ``pip`` chunk, about
  ``_STACK_DOFS`` DOFs) and M = 16 at 801 (the benchmark's ``sweep``), per
  stack and per operator;
- ``oracle``: the resident's steady solve through the continuous-form route
  (``solve_transformed_steady``), at 201, 2,001 and 8,001 reduced DOFs;
- ``step``: one ``Stepper.step`` of the resident/mutant pair at the default
  dt, at the same three sizes, on M = 1 and M = 2 rows per species
  (``rows_1``, ``rows_2``; M = 2 is the order-preservation harness's stack),
  timed over 100 consecutive steps from the default initial data and
  divided by 100;
- ``first_step``: the first ``Stepper.step`` of a fresh stepper at the same
  three sizes, from the default initial data: the lazy LDLᵀ factorisation of
  ``I - dt A`` per species (its similarity and coefficients included) and
  one step; the stepper is built outside the timed call;
- ``simulate_rows``: ``simulate`` to a verdict on each of the six table rows,
  ``configs/{above,below}_{resident_wins,mutant_wins,coexistence}.json``
  (201 reduced DOFs, default dt), with the verdict, the steps taken and the
  median wall time in milliseconds;
- ``pip_7x7`` and ``pip_10x10``: a 7 x 7 and a 10 x 10 ``pip`` at 100
  subintervals per patch (10 x 10 is the benchmark's ``invasion_scan`` size);
- ``strategy_checks``: ``css_check`` and ``nis_check`` at 2 and ``ess_check``
  at 3, each with ``delta`` 1 and 5 samples per side at 100 subintervals per
  patch (the benchmark's ``invasion_scan`` settings);
- ``sweep_256``: the CLI ``sweep`` of 256 mutants with ``fitness: true`` at
  400 subintervals per patch, run in this process through ``run_command``;
- ``cli``: each CLI command (``steady``, ``eigen``, ``fitness``,
  ``classify``, ``pip``, ``sweep``, ``validate``) on
  ``configs/reference_two_patch.json``, run end to end as a subprocess
  (interpreter start and import included);
- ``startup``: a fresh interpreter that imports patchcomp and exits, timed
  from outside, reported apart because every CLI command pays it.

BLAS runs on one thread.  The machine record holds ``nproc`` and the Python,
numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import patchcomp as pc  # noqa: E402
import patchcomp.cli  # noqa: E402
from patchcomp.config import RunConfig  # noqa: E402
from patchcomp.dynamics import Stepper, default_initial  # noqa: E402
from patchcomp.eigen import assemble_linearization, growth_potential  # noqa: E402
from patchcomp.operators import assemble_diffusion  # noqa: E402

LAND = pc.Landscape([0.0, 1.0, 2.0])
ENV = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
RESIDENT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
MUTANT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.5]))
PER_PATCH = (100, 400, 800)  # 201, 801 and 1,601 reduced DOFs
STACKS = (1, 10, 16)
SCAN_STACKS = ((100, 81), (400, 16))  # (per patch, M): 201 and 801 reduced DOFs
RESIDENT_STACKS = (1, 10, 32)
STEADY_STACK_PER_PATCH = (100, 800)  # 201 and 1,601 reduced DOFs
FINE_PER_PATCH = (100, 1000, 4000)  # 201, 2,001 and 8,001 reduced DOFs
STEPS_PER_REPEAT = 100
STEP_ROWS = (1, 2)
TABLE_ROWS = tuple(
    f"{side}_{verdict}"
    for side in ("above", "below")
    for verdict in ("resident_wins", "mutant_wins", "coexistence")
)
CLI_COMMANDS = ("steady", "eigen", "fitness", "classify", "pip", "sweep", "validate")
CLI_CONFIG = ROOT / "configs" / "reference_two_patch.json"


def median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layers(repeats: int) -> dict:
    out = {"assembly": {}, "steady": {}, "eigen": {}}
    for per_patch in PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        dofs = str(grid.num_reduced)
        out["assembly"][dofs] = median_ms(lambda: assemble_diffusion(grid, MUTANT), repeats)
        out["steady"][dofs] = median_ms(
            lambda: pc.solve_resident_steady(LAND, ENV, RESIDENT, grid), repeats
        )
        ops = _linearizations(grid, max(STACKS))
        row = {"single": median_ms(lambda: pc.principal_eigenpair(ops[0]), repeats)}
        for m in STACKS:
            stack = ops[:m]
            ms = median_ms(lambda: pc.principal_eigenpairs(stack), repeats)
            row[f"stack_{m}"] = ms
            row[f"stack_{m}_per_operator"] = ms / m
        out["eigen"][dofs] = row
    return out


def fitness(repeats: int) -> dict:
    out = {}
    for per_patch in PER_PATCH:
        def fresh():
            return pc.build_grid(LAND, per_patch=per_patch)

        out[str(fresh().num_reduced)] = {
            "steady": median_ms(
                lambda: pc.solve_resident_steady(LAND, ENV, RESIDENT, fresh()), repeats
            ),
            "fitness": median_ms(
                lambda: pc.invasion_fitness(LAND, ENV, RESIDENT, MUTANT, fresh()), repeats
            ),
        }
    return out


def _linearizations(grid, count: int) -> list:
    """``count`` mutants' linearizations at the resident's steady state."""
    potential = growth_potential(grid, ENV, pc.solve_resident_steady(LAND, ENV, RESIDENT, grid))
    return [
        assemble_linearization(grid, pc.SpeciesTraits([1.0, 1.0], [p]), potential)
        for p in np.linspace(1.2, 4.0, count)
    ]


def eigen_stack(repeats: int) -> dict:
    out = {}
    for per_patch, m in SCAN_STACKS:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        ops = _linearizations(grid, m)
        ms = median_ms(lambda: pc.principal_eigenpairs(ops), repeats)
        out[str(grid.num_reduced)] = {f"stack_{m}": ms, f"stack_{m}_per_operator": ms / m}
    return out


def steady_stack(repeats: int) -> dict:
    out = {}
    for per_patch in STEADY_STACK_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        row = {}
        for r in RESIDENT_STACKS:
            residents = [
                pc.SpeciesTraits([1.0, 1.0], [p]) for p in np.linspace(1.2, 4.0, r)
            ]
            row[f"stacked_{r}"] = median_ms(
                lambda: pc.solve_resident_steady_states(LAND, ENV, residents, grid), repeats
            )
            row[f"loop_{r}"] = median_ms(
                lambda: [pc.solve_resident_steady(LAND, ENV, one, grid) for one in residents],
                repeats,
            )
        out[str(grid.num_reduced)] = row
    return out


def first_step_ms(grid, start, repeats: int) -> float:
    """Median first ``step`` of a fresh stepper, built before the clock
    starts, after one untimed warm-up."""
    times = []
    for _ in range(repeats + 1):
        stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
        t0 = perf_counter()
        stepper.step(*start)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times[1:])


def fine_layers(repeats: int) -> dict:
    out = {"oracle": {}, "step": {}, "first_step": {}}
    for per_patch in FINE_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        dofs = str(grid.num_reduced)
        out["oracle"][dofs] = median_ms(
            lambda: pc.solve_transformed_steady(LAND, ENV, RESIDENT, grid), repeats
        )
        stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
        u0, v0 = default_initial(grid, ENV)
        row = {}
        for m in STEP_ROWS:
            # M = 1: the (N,) states simulate steps; else an (M, N) stack
            start = (u0, v0) if m == 1 else (np.tile(u0, (m, 1)), np.tile(v0, (m, 1)))

            def march() -> None:
                u, v = start
                for _ in range(STEPS_PER_REPEAT):
                    u, v, _ = stepper.step(u, v)

            row[f"rows_{m}"] = median_ms(march, repeats) / STEPS_PER_REPEAT
        out["step"][dofs] = row
        out["first_step"][dofs] = first_step_ms(grid, (u0, v0), repeats)
    return out


def simulate_rows(repeats: int) -> dict:
    out = {}
    for name in TABLE_ROWS:
        cfg = RunConfig.load(str(ROOT / "configs" / f"{name}.json"))
        grid = cfg.build_grid()
        records = []

        def run() -> None:
            records.append(pc.simulate(
                cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid,
                cfg.sim, steady_config=cfg.steady,
            ))

        ms = median_ms(run, repeats)
        if len({(r.verdict, r.steps) for r in records}) != 1:
            raise SystemExit(f"bench_layers: {name} is not repeatable")
        out[name] = {"verdict": records[0].verdict, "steps": records[0].steps, "ms": ms}
    return out


def pip_square(size: int, repeats: int) -> float:
    grid = pc.build_grid(LAND, per_patch=100)
    residents = np.linspace(2.2, 4.0, size)
    mutants = np.linspace(1.0, 4.0, size)
    return median_ms(lambda: pc.pip(residents, mutants, [1.0, 1.0], LAND, ENV, grid), repeats)


def strategy_checks(repeats: int) -> dict:
    grid = pc.build_grid(LAND, per_patch=100)
    checks = (("css", pc.css_check, 2.0), ("nis", pc.nis_check, 2.0), ("ess", pc.ess_check, 3.0))
    return {
        name: median_ms(lambda: check(focal, 1.0, 5, LAND, ENV, [1.0, 1.0], grid), repeats)
        for name, check, focal in checks
    }


def sweep_256(repeats: int) -> float:
    points = np.random.default_rng(1).uniform(1.0, 4.0, 256)
    config = {
        "resident": {"d": [1.0, 1.0], "p": [3.0]},
        "mutant": {"d": [1.0, 1.0], "p": [2.5]},
        "grid": {"per_patch": 400},
        "sweep": {"mutant_p": [[float(p)] for p in points], "fitness": True},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(path), "--out", tmp]

        def run() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                if patchcomp.cli.run_command(argv) != 0:
                    raise SystemExit("bench_layers: sweep failed")

        return median_ms(run, repeats)


def _subprocess_ms(args: list[str], repeats: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, *args]
    return median_ms(
        lambda: subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL), repeats
    )


def cli(repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            command: _subprocess_ms(
                ["-m", "patchcomp.cli", command, "--config", str(CLI_CONFIG), "--out", tmp],
                repeats,
            )
            for command in CLI_COMMANDS
        }


def startup(repeats: int) -> float:
    return _subprocess_ms(["-c", "import patchcomp"], repeats)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats (>= 5)")
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    result = {
        "unit": "ms",
        "statistic": f"median of {args.repeats} repeats",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        **layers(args.repeats),
        "fitness": fitness(args.repeats),
        "eigen_stack": eigen_stack(args.repeats),
        "steady_stack": steady_stack(args.repeats),
        **fine_layers(args.repeats),
        "simulate_rows": simulate_rows(args.repeats),
        "pip_7x7": pip_square(7, args.repeats),
        "pip_10x10": pip_square(10, args.repeats),
        "strategy_checks": strategy_checks(args.repeats),
        "sweep_256": sweep_256(args.repeats),
        "cli": cli(args.repeats),
        "startup": startup(args.repeats),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
