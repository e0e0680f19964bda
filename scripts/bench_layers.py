#!/usr/bin/env python3
"""Time patchcomp layer by layer and write the results as JSON.

    python3 scripts/bench_layers.py [LAYER ...] [--out BENCH.json] [--repeats 7]

Run from the root of a source checkout; the package is imported from its
``src/``.  Each timed figure is ``{"ms": ..., "minflt": ...}``: the median of
``--repeats`` timed repeats (at least 5) after one untimed warm-up call, in
milliseconds, and the minor page faults per timed call (the change in
``ru_minflt`` over the timed repeats divided by their number; for the
subprocess figures, ``cli`` and ``startup``, the faults of the children).  A
``*_per_operator`` figure is its stack's ``ms`` divided by M.  The LAYER
arguments, if any, name the layers to time (a layer timed together with
others in one loop runs that loop, and only the named ones are written);
without them every layer is timed.  All figures are
for the reference two-patch pair (resident p = 3, mutant p = 2.5, capacity
ratio 2).  The layers:

- ``assembly``: at 201, 1,601 and 8,001 reduced DOFs, per call (timed over
  50 calls on one grid, built outside the timed call, and divided by 50),
  once per route: the kernel (``kernel``, where it loaded) and numpy
  (``numpy``, the kernel handle set to None in this process for the time of
  the call): ``assemble_diffusion`` of the mutant; the ``SpeciesLayout``
  and its bands (``diffusion_bands`` in trees before the layout held its
  bands) of the resident alone, ``(N,)`` (``bands_N``), of the mutant as a
  stack of one, ``(1, N)`` (``bands_1xN``), and of the pair, ``(2, N)``
  (``bands_2xN``); the same three layouts with the similarity of their
  couplings, which the solvers read of them (``layout_N``, ``layout_1xN``,
  ``layout_2xN``: a ``SpeciesLayout``, which writes it, or, in trees before
  it did, a ``SpeciesLayout`` and ``symmetrizing_similarity`` of its
  bands); and ``symmetrizing_similarity`` of the pair's bands, numpy's for
  the operators no layout built (the stepper's plan took it in trees
  before the layout wrote it);
- ``steady``: the resident's Newton steady solve;
- ``fitness``: on a grid built inside each timed call (its index arrays
  are built lazily, so their cost lands in the solves), as for a new
  landscape, at 201, 801 and 1,601 reduced DOFs: the resident's steady
  solve alone (``steady``) and ``invasion_fitness`` of the mutant against
  the resident (``fitness``, that steady solve included);
- ``steady_stack``: the steady states of R = 1, 10 and 32 residents
  (strategies spread over 1.2-4) at 201 and 1,601 reduced DOFs, as one
  stacked ``solve_resident_steady_states`` call and as a loop of single
  ``solve_resident_steady`` calls;
- ``steady_fallback``: ``solve_resident_steady`` at 9 subintervals per
  patch on three landscapes (three, four and six patches) on which Newton
  from the capacity profile, unlifted, stalls (in trees with a restart from
  the super-solution, each solve also runs that second path);
- ``eigen``: one ``principal_eigenpair`` solve, and ``principal_eigenpairs``
  on stacks of M = 1, 10 and 16 mutants' linearizations (per stack and per
  operator);
- ``eigen_stack``: ``principal_eigenpairs`` on the stacks the scans make,
  M = 81 linearizations at 201 reduced DOFs (one ``pip`` chunk, about
  ``_STACK_DOFS`` DOFs) and M = 16 at 801 (the benchmark's ``sweep``), per
  stack and per operator;
- ``noda``: Noda's iteration alone (``eigen._noda``, or
  ``eigen._stacked_solve`` in trees that had it, from the start vectors, the
  bands and their couplings' similarity, ``checked_similarity``'s or the
  layouts', built outside the timed call) on one mutant's
  linearization and on a stack of 16, at 201, 1,601 and 8,001 reduced DOFs,
  and at 201 on the 100 pairs of ``pip_10x10`` (``pip_pairs_100``), whose
  blocks stop on different passes (21 after 3 solves, 79 after 4; the 16
  all stop after 4), once per route as for ``step``;
- ``newton``: the steady Newton alone, ``_SteadyProblem.solve`` with the
  problem built outside the timed call (in trees with a restart from
  ``M c`` the restart is part of it), with the residual evaluations of one
  solve (``residuals``), once per route: from the capacity start, of the
  resident as a stack of one (on its own ``(N,)`` arrays in trees that
  still had that path) and of a stack of 16 residents (strategies spread
  over 1.2-4), at the same three sizes; the resident's from a flat start of
  0.05, below its state (``flat_start``), at 201 and 1,601 reduced DOFs; and
  from the capacity start on the ``steady_fallback`` landscapes at 9
  subintervals per patch (``stalling``, by landscape).  On the kernel's
  route each ``noda`` and ``newton`` figure is one kernel call, the whole
  loop, in trees that have the one-call loops;
- ``oracle``: the resident's steady solve through the continuous-form route
  (``solve_transformed_steady``), at 201, 2,001 and 8,001 reduced DOFs;
- ``step``: one ``Stepper.step`` of the resident/mutant pair at the default
  dt, at the same three sizes, on one ``(2, N)`` state and on an
  ``(M, 2, N)`` stack of M = 2 runs (``rows_1``, ``rows_2``; M = 2 is the
  order-preservation harness's stack), timed over 100 consecutive steps from
  the default initial data and divided by 100 (the faults too), once per
  route on a stepper built for it: the kernel's one call per step
  (``kernel``, where it loaded) and numpy's right-hand side with LAPACK's
  solve (``lapack``), routes as for ``ldlt``;
- ``first_step``: the first ``Stepper.step`` of a fresh stepper at the same
  three sizes, from the default initial data: the lazy LDLᵀ factorisation of
  the two species' stacked ``I - dt A`` (its similarity and coefficients
  included) and one step; the stepper is built outside the timed call;
- ``harness``: one op of the order-preservation harness at the same three
  sizes, as the benchmark's ``fine_march`` times it: a fresh stepper and
  ``order_preservation_check`` over 20 steps of two ordered states (from the
  default initial data, each species halved in one of them);
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
  from outside, reported apart because every CLI command pays it;
- ``ldlt``: ``factor_symmetrized``, one factorisation and one solve (of a
  fresh copy of the right-hand side), on the stacks its callers make: the
  stepper's two species, ``I - dt A`` at 201, 2,001 and 8,001 reduced DOFs
  with a ``(2, N)`` and a ``(2, 2, N)`` right-hand side (``rows_1``,
  ``rows_2``), and Noda's shifted solves on 81 linearizations at 201 reduced
  DOFs and 16 at 801 (``noda_81x201``, ``noda_16x801``); timed over 20 calls
  and divided by 20, once per route: the interleaved kernel (``kernel``,
  where it loaded) and LAPACK (``lapack``, the kernel handle set to None in
  this process for the time of the call).

BLAS runs on one thread.  The machine record holds ``nproc``, the Python,
numpy and scipy versions, whether the LDLᵀ kernel loaded and the first line
of the C compiler's ``--version``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import sysconfig
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
from patchcomp import eigen, operators, steady  # noqa: E402
from patchcomp.eigen import assemble_linearization, growth_potential  # noqa: E402
from patchcomp.operators import (  # noqa: E402
    SpeciesLayout,
    assemble_diffusion,
    factor_symmetrized,
    symmetrizing_similarity,
)

# a layout and its diffusion bands in one call (in trees before the layout
# held its bands, ``diffusion_bands``)
BANDS = getattr(operators, "diffusion_bands", None) or SpeciesLayout
LAND = pc.Landscape([0.0, 1.0, 2.0])
ENV = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
RESIDENT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
MUTANT = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.5]))
PER_PATCH = (100, 400, 800)  # 201, 801 and 1,601 reduced DOFs
STACKS = (1, 10, 16)
SCAN_STACKS = ((100, 81), (400, 16))  # (per patch, M): 201 and 801 reduced DOFs
RESIDENT_STACKS = (1, 10, 32)
STEADY_STACK_PER_PATCH = (100, 800)  # 201 and 1,601 reduced DOFs
# (lengths, d, r, k, p) of landscapes on which Newton from the capacity
# profile, unlifted, stalls at FALLBACK_PER_PATCH
FALLBACK_LANDSCAPES = {
    "three_patches": ([1.519, 1.308, 0.898], [0.388, 0.026, 15.799],
                      [0.116, 7.261, 2.038], [0.123, 3.786, 0.166], [2.331, 3.051]),
    "four_patches": ([1.286, 1.525, 1.644, 1.886], [0.655, 0.029, 0.037, 10.269],
                     [0.967, 0.684, 6.905, 8.53], [5.57, 0.255, 6.56, 1.965],
                     [0.282, 0.856, 0.649]),
    "six_patches": ([1.997, 1.489, 1.533, 1.645, 1.1, 0.591],
                    [2.643, 0.091, 0.037, 0.019, 0.197, 1.47],
                    [3.863, 0.608, 0.125, 4.46, 0.164, 5.572],
                    [0.17, 0.505, 0.128, 5.303, 8.899, 0.405],
                    [0.507, 0.237, 2.022, 0.063, 0.21]),
}
FALLBACK_PER_PATCH = 9
FINE_PER_PATCH = (100, 1000, 4000)  # 201, 2,001 and 8,001 reduced DOFs
INNER_PER_PATCH = (100, 800, 4000)  # 201, 1,601 and 8,001 reduced DOFs
INNER_STACKS = (1, 16)
FLAT_START = 0.05
FLAT_PER_PATCH = (100, 800)  # 201 and 1,601 reduced DOFs
PIP_PER_PATCH = 100
_BANDS = ("lo", "di", "up")
STEPS_PER_REPEAT = 100
HARNESS_STEPS = 20
STEP_ROWS = (1, 2)
LDLT_CALLS = 20
ASSEMBLY_CALLS = 50
TABLE_ROWS = tuple(
    f"{side}_{verdict}"
    for side in ("above", "below")
    for verdict in ("resident_wins", "mutant_wins", "coexistence")
)
CLI_COMMANDS = ("steady", "eigen", "fitness", "classify", "pip", "sweep", "validate")
CLI_CONFIG = ROOT / "configs" / "reference_two_patch.json"


def timed(call, repeats: int, who: int = resource.RUSAGE_SELF) -> dict:
    """Median milliseconds of ``repeats`` timed calls after one untimed
    warm-up, and the minor page faults of ``who`` per timed call."""
    call()
    times = []
    faults = resource.getrusage(who).ru_minflt
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    faults = resource.getrusage(who).ru_minflt - faults
    return {"ms": 1e3 * statistics.median(times), "minflt": faults / repeats}


def layers(repeats: int) -> dict:
    out = {"steady": {}, "eigen": {}}
    for per_patch in PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        dofs = str(grid.num_reduced)
        out["steady"][dofs] = timed(
            lambda: pc.solve_resident_steady(LAND, ENV, RESIDENT, grid), repeats
        )
        ops = _linearizations(grid, max(STACKS))
        row = {"single": timed(lambda: pc.principal_eigenpair(ops[0]), repeats)}
        for m in STACKS:
            stack = ops[:m]
            row[f"stack_{m}"] = timed(lambda: pc.principal_eigenpairs(stack), repeats)
            row[f"stack_{m}_per_operator"] = row[f"stack_{m}"]["ms"] / m
        out["eigen"][dofs] = row
    return out


def assembly(repeats: int) -> dict:
    """The ``assembly`` layer: each assembly call per route, per call."""
    out = {}
    for per_patch in INNER_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        # each species' operator is its row of a stack's bands, bit for bit
        pair = [assemble_diffusion(grid, traits) for traits in (RESIDENT, MUTANT)]
        lo, up = (np.array([getattr(op, band) for op in pair]) for band in ("lo", "up"))
        calls = {
            "assemble_diffusion": lambda: assemble_diffusion(grid, MUTANT),
            "bands_N": lambda: BANDS(grid, RESIDENT),
            "bands_1xN": lambda: BANDS(grid, [MUTANT]),
            "bands_2xN": lambda: BANDS(grid, [RESIDENT, MUTANT]),
            "layout_N": lambda: _similar_layout(grid, RESIDENT),
            "layout_1xN": lambda: _similar_layout(grid, [MUTANT]),
            "layout_2xN": lambda: _similar_layout(grid, [RESIDENT, MUTANT]),
            "symmetrizing_similarity": lambda: symmetrizing_similarity(lo, up),
        }
        out[str(grid.num_reduced)] = {
            name: _routes(lambda: _per_call(call, ASSEMBLY_CALLS, repeats), fallback="numpy")
            for name, call in calls.items()
        }
    return out


def _similar_layout(grid, traits) -> SpeciesLayout:
    """The ``SpeciesLayout`` of ``traits`` and the similarity of its
    couplings: the layout writes it, or, in trees before it did,
    ``symmetrizing_similarity`` of its bands is taken after it."""
    layout = SpeciesLayout(grid, traits)
    if not hasattr(layout, "s"):
        symmetrizing_similarity(layout.lo, layout.up)
    return layout


def _per_call(call, count: int, repeats: int) -> dict:
    """``timed`` for ``count`` consecutive calls, per call."""

    def calls() -> None:
        for _ in range(count):
            call()

    return {k: v / count for k, v in timed(calls, repeats).items()}


def fitness(repeats: int) -> dict:
    out = {}
    for per_patch in PER_PATCH:
        def fresh():
            return pc.build_grid(LAND, per_patch=per_patch)

        out[str(fresh().num_reduced)] = {
            "steady": timed(
                lambda: pc.solve_resident_steady(LAND, ENV, RESIDENT, fresh()), repeats
            ),
            "fitness": timed(
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
        stack = timed(lambda: pc.principal_eigenpairs(ops), repeats)
        out[str(grid.num_reduced)] = {
            f"stack_{m}": stack, f"stack_{m}_per_operator": stack["ms"] / m,
        }
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
            row[f"stacked_{r}"] = timed(
                lambda: pc.solve_resident_steady_states(LAND, ENV, residents, grid), repeats
            )
            row[f"loop_{r}"] = timed(
                lambda: [pc.solve_resident_steady(LAND, ENV, one, grid) for one in residents],
                repeats,
            )
        out[str(grid.num_reduced)] = row
    return out


def inner_loops(repeats: int) -> dict:
    """The ``noda`` and ``newton`` layers."""
    out = {"noda": {}, "newton": {}}
    config = pc.SteadyConfig()
    # a single resident: a stack of one where Newton takes stacks only
    single = (lambda t: [t]) if hasattr(steady._SteadyProblem, "run") else (lambda t: t)
    for per_patch in INNER_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        ops = _linearizations(grid, max(INNER_STACKS))
        residents = [pc.SpeciesTraits([1.0, 1.0], [p]) for p in np.linspace(1.2, 4.0, 16)]
        noda, newton = {}, {}
        for m in INNER_STACKS:
            lo, di, up = (np.array([getattr(op, band) for op in ops[:m]]) for band in _BANDS)
            couplings = operators.checked_similarity(lo, di, up)
            start = eigen._start_vectors(SpeciesLayout(grid, [op.traits for op in ops[:m]]))
            solve = _noda_solve(lo, di, up, couplings, start)
            noda[f"stack_{m}"] = _routes(lambda: timed(solve, repeats))
            traits = single(RESIDENT) if m == 1 else residents[:m]
            problem = steady._SteadyProblem(grid, ENV, traits)
            u0 = np.empty(problem.a.shape)
            u0[...] = problem.layout.fill(ENV.k_array)
            newton[f"stack_{m}"] = _routes(lambda: _counted_solve(problem, u0, config, repeats))
        if per_patch in FLAT_PER_PATCH:
            problem = steady._SteadyProblem(grid, ENV, single(RESIDENT))
            flat = np.full(grid.num_reduced, FLAT_START)
            newton["flat_start"] = _routes(lambda: _counted_solve(problem, flat, config, repeats))
        if per_patch == PIP_PER_PATCH:
            lo, di, up, couplings, start = _pip_pairs(grid)
            solve = _noda_solve(lo, di, up, couplings, start)
            noda[f"pip_pairs_{len(di)}"] = _routes(lambda: timed(solve, repeats))
        out["noda"][str(grid.num_reduced)] = noda
        out["newton"][str(grid.num_reduced)] = newton
    out["newton"]["stalling"] = {}
    for name, (land, env, traits) in _fallback_problems().items():
        grid = pc.build_grid(land, per_patch=FALLBACK_PER_PATCH)
        problem = steady._SteadyProblem(grid, env, single(traits))
        u0 = problem.layout.fill(env.k_array)
        out["newton"]["stalling"][name] = _routes(
            lambda: _counted_solve(problem, u0, config, repeats)
        )
    return out


def _noda_solve(lo, di, up, couplings, start):
    """Noda's iteration on the bands from a copy of ``start``, as a callable:
    ``eigen._noda`` on the similarity ``couplings``, or, in trees that had
    it, ``eigen._stacked_solve``, whose couplings also held their part of
    the band scale."""
    if hasattr(eigen, "_stacked_solve"):
        return lambda: eigen._stacked_solve(lo, di, up, couplings, start.copy())
    return lambda: eigen._noda(lo, di, up, *couplings, start.copy())


def _counted_solve(problem, start, config, repeats: int) -> dict:
    """``timed`` for ``problem.solve`` from ``start``, with the residual
    evaluations of one solve: one per pass of its run, its most steps plus
    one (in trees whose run did not return its steps, counted by wrapping
    ``problem.residual``)."""
    out = timed(lambda: problem.solve(start, config), repeats)
    if hasattr(problem, "run"):
        out["residuals"] = int(problem.run(start, config)[3].max()) + 1
        return out
    residual, evaluations = problem.residual, []

    def counted(u):
        evaluations.append(None)
        return residual(u)

    problem.residual = counted
    problem.solve(start, config)
    del problem.residual
    out["residuals"] = len(evaluations)
    return out


def _pip_pairs(grid):
    """The bands, couplings and start vectors of every (resident, mutant)
    pair of ``pip_square(10)``, in its order, as ``fitness_table`` builds
    them: the couplings are the layout's similarity, with its
    ``coupling_scale`` in trees whose layout wrote one."""
    residents, mutants = (
        [pc.SpeciesTraits([1.0, 1.0], [p]) for p in scan] for scan in _pip_scans(10)
    )
    context = eigen.ResidentContext(LAND, ENV, residents, grid)
    rows, cols = np.divmod(np.arange(len(residents) * len(mutants)), len(mutants))
    layout = SpeciesLayout(grid, mutants)[cols]
    if hasattr(layout, "coupling_scale"):
        couplings = (layout.s, layout.s2, layout.off, layout.coupling_scale)
    elif hasattr(layout, "s"):
        couplings = (layout.s, layout.s2, layout.off)
    else:  # in trees before the layout wrote its similarity
        couplings = operators.checked_similarity(*layout.bands)
    di = layout.di + layout.restrict_diag(context.potential.take(rows, axis=0))
    return layout.lo, di, layout.up, couplings, eigen._start_vectors(layout)


def _fallback_problems() -> dict:
    """``(landscape, environment, traits)`` of each ``FALLBACK_LANDSCAPES``."""
    out = {}
    for name, (length, d, r, k, p) in FALLBACK_LANDSCAPES.items():
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        traits = pc.SpeciesTraits(d, pc.StrategyVector(p))
        out[name] = (land, pc.PatchEnvironment(r=r, k=k), traits)
    return out


def steady_fallback(repeats: int) -> dict:
    out = {}
    for name, (land, env, traits) in _fallback_problems().items():
        grid = pc.build_grid(land, per_patch=FALLBACK_PER_PATCH)
        out[name] = timed(lambda: pc.solve_resident_steady(land, env, traits, grid), repeats)
    return out


def first_step(grid, start, repeats: int) -> dict:
    """``timed`` for the first ``step`` of a fresh stepper, built before the
    clock starts (its faults are not counted)."""
    times, faults = [], 0
    for i in range(repeats + 1):
        stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        stepper.step(start)
        t1 = perf_counter()
        if i:  # the first call is the warm-up
            times.append(t1 - t0)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    return {"ms": 1e3 * statistics.median(times), "minflt": faults / repeats}


def fine_layers(repeats: int) -> dict:
    out = {"oracle": {}, "step": {}, "first_step": {}, "harness": {}}
    for per_patch in FINE_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        dofs = str(grid.num_reduced)
        out["oracle"][dofs] = timed(
            lambda: pc.solve_transformed_steady(LAND, ENV, RESIDENT, grid), repeats
        )
        w0 = np.array(default_initial(grid, ENV))
        row = {}
        for m in STEP_ROWS:
            # M = 1: the (2, N) state simulate steps; else an (M, 2, N) stack
            start = w0 if m == 1 else np.tile(w0, (m, 1, 1))

            def per_step() -> dict:
                stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)

                def march() -> None:
                    w = start
                    for _ in range(STEPS_PER_REPEAT):
                        w, _ = stepper.step(w)

                return {k: v / STEPS_PER_REPEAT for k, v in timed(march, repeats).items()}

            row[f"rows_{m}"] = _routes(per_step)
        out["step"][dofs] = row
        out["first_step"][dofs] = first_step(grid, w0, repeats)
        u, v = w0
        out["harness"][dofs] = timed(lambda: pc.order_preservation_check(
            (u, 0.5 * v), (0.5 * u, v), Stepper(LAND, ENV, RESIDENT, MUTANT, grid),
            HARNESS_STEPS,
        ), repeats)
    return out


def _routes(measure, fallback: str = "lapack") -> dict:
    """``measure()`` once per LDLᵀ route: the interleaved kernel
    (``kernel``, where it loaded) and LAPACK and numpy (named ``fallback``,
    the kernel handle set to None in this process for the time of the
    call)."""
    kernel = getattr(operators, "_ldlt", None)  # absent before the kernel existed
    routes = {"kernel": kernel} if kernel is not None else {}
    routes[fallback] = None
    out = {}
    try:
        for name, handle in routes.items():
            operators._ldlt = handle
            out[name] = measure()
    finally:
        operators._ldlt = kernel
    return out


def _ldlt_routes(di, off, alpha, beta, rhs, repeats: int) -> dict:
    """``timed`` per route for ``LDLT_CALLS`` factor-and-solve calls, per call."""
    return _routes(lambda: _per_call(
        lambda: factor_symmetrized(di, off, alpha, beta)(rhs.copy()), LDLT_CALLS, repeats
    ))


def ldlt(repeats: int) -> dict:
    out = {}
    for per_patch in FINE_PER_PATCH:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        stepper = Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
        lo, di, up = stepper.layout.bands
        s, _, off = symmetrizing_similarity(lo, up)
        w0 = s * np.array(default_initial(grid, ENV))
        out[f"step_{grid.num_reduced}"] = {
            f"rows_{m}": _ldlt_routes(
                di, off, 1.0, stepper.dt, w0 if m == 1 else np.tile(w0, (m, 1, 1)), repeats
            )
            for m in STEP_ROWS
        }
    for per_patch, m in SCAN_STACKS:
        grid = pc.build_grid(LAND, per_patch=per_patch)
        ops = _linearizations(grid, m)
        lo, di, up = (np.array([getattr(op, band) for op in ops]) for band in ("lo", "di", "up"))
        s, _, off = symmetrizing_similarity(lo, up)
        # a shift per block above its spectrum (its largest Gershgorin bound)
        sigma = (di + np.abs(lo) + np.abs(up)).max(axis=1, keepdims=True) + 1e-3
        out[f"noda_{m}x{grid.num_reduced}"] = _ldlt_routes(di, off, sigma, 1.0, s.copy(), repeats)
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

        timing = timed(run, repeats)
        if len({(r.verdict, r.steps) for r in records}) != 1:
            raise SystemExit(f"bench_layers: {name} is not repeatable")
        out[name] = {"verdict": records[0].verdict, "steps": records[0].steps, **timing}
    return out


def _pip_scans(size: int):
    """The resident and the mutant scan of a ``size`` x ``size`` ``pip``."""
    return np.linspace(2.2, 4.0, size), np.linspace(1.0, 4.0, size)


def pip_square(size: int, repeats: int) -> dict:
    grid = pc.build_grid(LAND, per_patch=PIP_PER_PATCH)
    residents, mutants = _pip_scans(size)
    return timed(lambda: pc.pip(residents, mutants, [1.0, 1.0], LAND, ENV, grid), repeats)


def strategy_checks(repeats: int) -> dict:
    grid = pc.build_grid(LAND, per_patch=100)
    checks = (("css", pc.css_check, 2.0), ("nis", pc.nis_check, 2.0), ("ess", pc.ess_check, 3.0))
    return {
        name: timed(lambda: check(focal, 1.0, 5, LAND, ENV, [1.0, 1.0], grid), repeats)
        for name, check, focal in checks
    }


def sweep_256(repeats: int) -> dict:
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

        return timed(run, repeats)


def _subprocess(args: list[str], repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, *args]
    return timed(
        lambda: subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL), repeats,
        resource.RUSAGE_CHILDREN,
    )


def cli(repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            command: _subprocess(
                ["-m", "patchcomp.cli", command, "--config", str(CLI_CONFIG), "--out", tmp],
                repeats,
            )
            for command in CLI_COMMANDS
        }


def startup(repeats: int) -> dict:
    return _subprocess(["-c", "import patchcomp"], repeats)


def compiler_version() -> str:
    """The first line of the C compiler's ``--version`` (``sysconfig``'s
    ``CC``, the one the kernel is built with), or ``"none"``."""
    command = (sysconfig.get_config_var("CC") or "").split()[:1]
    try:
        done = subprocess.run([*command, "--version"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = done.stdout.splitlines()
    return lines[0] if done.returncode == 0 and lines else "none"


# Each group's layers, and the function of the repeats that times them.
GROUPS = (
    (("assembly",), lambda r: {"assembly": assembly(r)}),
    (("steady", "eigen"), layers),
    (("fitness",), lambda r: {"fitness": fitness(r)}),
    (("eigen_stack",), lambda r: {"eigen_stack": eigen_stack(r)}),
    (("steady_stack",), lambda r: {"steady_stack": steady_stack(r)}),
    (("steady_fallback",), lambda r: {"steady_fallback": steady_fallback(r)}),
    (("noda", "newton"), inner_loops),
    (("oracle", "step", "first_step", "harness"), fine_layers),
    (("simulate_rows",), lambda r: {"simulate_rows": simulate_rows(r)}),
    (("pip_7x7", "pip_10x10"),
     lambda r: {"pip_7x7": pip_square(7, r), "pip_10x10": pip_square(10, r)}),
    (("strategy_checks",), lambda r: {"strategy_checks": strategy_checks(r)}),
    (("sweep_256",), lambda r: {"sweep_256": sweep_256(r)}),
    (("cli",), lambda r: {"cli": cli(r)}),
    (("startup",), lambda r: {"startup": startup(r)}),
    (("ldlt",), lambda r: {"ldlt": ldlt(r)}),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layers", nargs="*", help="layers to time (default: all)")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats (>= 5)")
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    names = [name for group, _ in GROUPS for name in group]
    unknown = sorted(set(args.layers) - set(names))
    if unknown:
        parser.error(f"unknown layers {unknown}; the layers are {names}")
    result = {
        "unit": "ms",
        "statistic": f"median of {args.repeats} repeats; minflt per timed call",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
            "ldlt_kernel": bool(getattr(pc, "_LDLT_KERNEL", False)),
            "compiler": compiler_version(),
        },
    }
    for group, measure in GROUPS:
        wanted = [name for name in group if not args.layers or name in args.layers]
        if wanted:
            figures = measure(args.repeats)
            result.update((name, figures[name]) for name in wanted)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
