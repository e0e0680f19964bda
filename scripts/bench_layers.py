#!/usr/bin/env python3
"""Time patchcomp layer by layer and write the results as JSON.

    python3 scripts/bench_layers.py [--out BENCH.json] [--repeats 7]

Run from the root of a source checkout; the package is imported from its
``src/``.  Each figure is the median of ``--repeats`` timed repeats (at least
5) after one untimed warm-up call, in milliseconds, on the reference two-patch
pair (resident p = 3, mutant p = 2.5, capacity ratio 2).  The layers:

- ``assembly``: ``assemble_diffusion`` of one species;
- ``steady``: the resident's damped-Newton steady solve;
- ``eigen``: one ``principal_eigenpair`` solve, and ``principal_eigenpairs``
  on stacks of M = 1, 10 and 16 mutants' linearizations (per stack and per
  operator);
- ``oracle``: the resident's steady solve through the continuous-form route
  (``solve_transformed_steady``), at 201, 2,001 and 8,001 reduced DOFs;
- ``step``: one ``Stepper.step`` of the resident/mutant pair at the default
  dt, at the same three sizes, timed over 100 consecutive steps from the
  default initial data and divided by 100;
- ``pip_7x7``: a 7 x 7 ``pip`` at 100 subintervals per patch;
- ``sweep_256``: the CLI ``sweep`` of 256 mutants with ``fitness: true`` at
  400 subintervals per patch, run in this process through ``run_command``;
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
from patchcomp.dynamics import Stepper, default_initial  # noqa: E402
from patchcomp.eigen import assemble_linearization, growth_potential  # noqa: E402
from patchcomp.operators import assemble_diffusion  # noqa: E402

LAND = pc.Landscape([0.0, 1.0, 2.0])
ENV = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
RESIDENT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
MUTANT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.5]))
PER_PATCH = (100, 400, 800)  # 201, 801 and 1,601 reduced DOFs
STACKS = (1, 10, 16)
FINE_PER_PATCH = (100, 1000, 4000)  # 201, 2,001 and 8,001 reduced DOFs
STEPS_PER_REPEAT = 100


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
        potential = growth_potential(
            grid, ENV, pc.solve_resident_steady(LAND, ENV, RESIDENT, grid)
        )
        strategies = np.linspace(1.2, 4.0, max(STACKS))
        ops = [
            assemble_linearization(grid, pc.SpeciesTraits([1.0, 1.0], [p]), potential)
            for p in strategies
        ]
        row = {"single": median_ms(lambda: pc.principal_eigenpair(ops[0]), repeats)}
        for m in STACKS:
            stack = ops[:m]
            ms = median_ms(lambda: pc.principal_eigenpairs(stack), repeats)
            row[f"stack_{m}"] = ms
            row[f"stack_{m}_per_operator"] = ms / m
        out["eigen"][dofs] = row
    return out


def fine_layers(repeats: int) -> dict:
    out = {"oracle": {}, "step": {}}
    for per_patch in FINE_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        dofs = str(grid.num_reduced)
        out["oracle"][dofs] = median_ms(
            lambda: pc.solve_transformed_steady(LAND, ENV, RESIDENT, grid), repeats
        )
        stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
        u0, v0 = default_initial(grid, ENV)

        def march() -> None:
            u, v = u0, v0
            for _ in range(STEPS_PER_REPEAT):
                u, v, _ = stepper.step(u, v)

        out["step"][dofs] = median_ms(march, repeats) / STEPS_PER_REPEAT
    return out


def pip_7x7(repeats: int) -> float:
    grid = pc.build_grid(LAND, per_patch=100)
    residents = np.linspace(2.2, 4.0, 7)
    mutants = np.linspace(1.0, 4.0, 7)
    return median_ms(lambda: pc.pip(residents, mutants, [1.0, 1.0], LAND, ENV, grid), repeats)


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


def startup(repeats: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import patchcomp"]
    return median_ms(lambda: subprocess.run(cmd, env=env, check=True), repeats)


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
        **fine_layers(args.repeats),
        "pip_7x7": pip_7x7(args.repeats),
        "sweep_256": sweep_256(args.repeats),
        "startup": startup(args.repeats),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
