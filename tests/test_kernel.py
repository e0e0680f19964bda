"""The LDLᵀ's two routes, the interleaved kernel and LAPACK, give the same
numbers to every caller, and the kernel is built once, cached, and never
needed: without a compiler the package runs LAPACK."""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import patchcomp as pc
from conftest import c_compiler
from patchcomp import _native, eigen, operators, steady
from patchcomp.config import RunConfig
from patchcomp.dynamics import default_initial
from patchcomp.eigen import assemble_linearization, growth_potential
from patchcomp.operators import symmetrizing_similarity

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CONFIGS = TESTS.parent / "configs"
LAND = pc.Landscape([0.0, 1.0, 2.0])
ENV = pc.PatchEnvironment(r=[1.0, 1.2], k=[1.0, 2.0])
RESIDENT = pc.SpeciesTraits([1.0, 0.8], [3.0])
MUTANT = pc.SpeciesTraits([0.7, 1.0], [1.5])

# Imports the package (and its submodules) under an audit hook that counts
# the processes started, then prints whether the kernel loaded and the count.
POPEN_REPORT = """
import sys
started = []
sys.addaudithook(
    lambda event, args: started.append(args) if event == "subprocess.Popen" else None
)
import patchcomp, patchcomp.cli, patchcomp.config, patchcomp.validate
print(patchcomp._LDLT_KERNEL, len(started))
"""

# Prints whether the kernel loaded, whether importing the package and its CLI
# imported scipy, and whether a steady solve and a fitness evaluation did.
SCIPY_REPORT = """
import sys
import patchcomp, patchcomp.cli
imported = "scipy" in sys.modules
land = patchcomp.Landscape([0.0, 1.0, 2.0])
env = patchcomp.PatchEnvironment(r=[1.0, 1.2], k=[1.0, 2.0])
resident = patchcomp.SpeciesTraits([1.0, 0.8], [3.0])
grid = patchcomp.build_grid(land, per_patch=20)
patchcomp.invasion_fitness(land, env, resident, resident, grid)
print(patchcomp._LDLT_KERNEL, imported, "scipy" in sys.modules)
"""

# Prints whether the kernel loaded, where the package came from and
# ``figures_hex`` of this module.
FIGURES_REPORT = f"""
import json, sys
sys.path.append({str(TESTS)!r})
import patchcomp, test_kernel
print(patchcomp._LDLT_KERNEL, patchcomp.__file__)
print(json.dumps(test_kernel.figures_hex()))
"""


# One of tests/test_steady.py's landscapes on which Newton from the capacity
# profile, unlifted, stalls at 9 subintervals per patch; lifted to the folded
# capacity, it converges in one run.
STALLING = pc.Landscape(np.concatenate(([0.0], np.cumsum([1.519, 1.308, 0.898]))))
STALLING_ENV = pc.PatchEnvironment(r=[0.116, 7.261, 2.038], k=[0.123, 3.786, 0.166])
STALLING_TRAITS = pc.SpeciesTraits([0.388, 0.026, 15.799], [2.331, 3.051])
# Residents whose stacked capacity-start Newton runs stop on three different
# iterations.
STAGGERED = [pc.SpeciesTraits([1.0, 0.8], [p]) for p in (1.2, 2.0, 3.7)] + [
    pc.SpeciesTraits([0.05, 5.0], [0.3])
]


def figures() -> dict:
    """What every caller of the kernel computes, on fresh steppers and
    stacks: steps of a ``(2, N)`` state and a ``(3, 2, N)`` stack of runs,
    the order-preservation harness, ``simulate`` to a verdict on a table row
    at 201 reduced DOFs, stacked and single-block eigenpairs, a fitness
    table, ``invasion_fitness`` on a draw like the benchmark's
    ``sign_draws`` at 800 subintervals per patch, a stack of steady states
    that stop on different Newton iterations, and the steady state of a
    landscape on which Newton from the unlifted capacity profile stalls."""
    grid = pc.build_grid(LAND, per_patch=60)
    stepper = pc.Stepper(LAND, ENV, RESIDENT, MUTANT, grid)
    w = np.array(default_initial(grid, ENV))
    one, clipped_one = stepper.step(w)
    runs, clipped_runs = stepper.step(np.stack([w, 0.5 * w, 2.0 * w]))
    u, v = w
    preserved, worst, first = pc.order_preservation_check(
        (u, 0.5 * v), (0.5 * u, v), pc.Stepper(LAND, ENV, RESIDENT, MUTANT, grid), 30
    )
    row = RunConfig.load(str(CONFIGS / "below_resident_wins.json"))
    record = pc.simulate(row.landscape, row.environment, row.resident, row.mutant,
                         row.build_grid(), row.sim, steady_config=row.steady)
    potential = growth_potential(grid, ENV, pc.solve_resident_steady(LAND, ENV, RESIDENT, grid))
    ops = [
        assemble_linearization(grid, pc.SpeciesTraits([1.0, 1.0], [p]), potential)
        for p in (1.2, 2.0, 2.9, 3.7)
    ]
    pairs = pc.principal_eigenpairs(ops)
    species = [pc.SpeciesTraits([1.0, 1.0], [p]) for p in (1.5, 2.5, 3.5)]
    table = pc.fitness_table(LAND, ENV, grid, species, species)
    single = pc.principal_eigenpair(ops[1])
    draw_land = pc.Landscape([0.0, 0.93, 2.04])
    draw_env = pc.PatchEnvironment(r=[1.37, 0.71], k=[0.82, 1.91])
    draw = pc.invasion_fitness(
        draw_land, draw_env, pc.SpeciesTraits([0.7, 1.2], [3.1]),
        pc.SpeciesTraits([1.1, 0.9], [1.7]), pc.build_grid(draw_land, per_patch=800),
    )
    staggered = pc.solve_resident_steady_states(LAND, ENV, STAGGERED, grid)
    stalling = pc.solve_resident_steady(
        STALLING, STALLING_ENV, STALLING_TRAITS, pc.build_grid(STALLING, per_patch=9)
    )
    return {
        "step": one,
        "step_clipped": np.array(clipped_one),
        "runs": runs,
        "runs_clipped": np.array(clipped_runs),
        "harness": np.array([preserved, worst, -1 if first is None else first], float),
        "simulate": np.array([record.u_final.values, record.v_final.values]),
        "simulate_record": np.array(
            [record.steps, record.t_final, record.diagnostics["clip_total"]]
        ),
        "lambda1": np.array([pair.lambda1 for pair in pairs]),
        "phi": np.array([pair.phi.values for pair in pairs]),
        "residual": np.array([pair.residual for pair in pairs]),
        "iterations": np.array([pair.iterations for pair in pairs], float),
        "table": table,
        "single": np.array([single.lambda1, single.residual, single.iterations,
                            *single.phi.values]),
        "draw": np.array([draw.lambda1, draw.residual, draw.iterations, *draw.phi.values]),
        "staggered": np.array([u.values for u in staggered]),
        "stalling": stalling.values,
    }


def figures_hex() -> dict:
    """``figures`` with every number written exactly."""
    return {name: [float(x).hex() for x in a.ravel()] for name, a in figures().items()}


class CountingKernel:
    """The loaded kernel, counting its calls by entry point."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, Counter()

    def __getattr__(self, name):
        entry = getattr(self.kernel, name)

        def call(*args):
            self.calls[name] += 1
            return entry(*args)

        return call


def test_a_steady_solve_and_an_eigen_solve_are_one_call_each(ldlt_kernel, monkeypatch):
    counting = CountingKernel(ldlt_kernel)
    monkeypatch.setattr(operators, "_ldlt", counting)
    grid = pc.build_grid(LAND, per_patch=60)
    ustar = pc.solve_resident_steady(LAND, ENV, RESIDENT, grid)
    # one assembly, with its couplings' similarity, and the whole Newton run
    assert counting.calls == {"species": 1, "newton": 1}
    counting.calls.clear()
    pair = pc.invasion_fitness(LAND, ENV, RESIDENT, MUTANT, grid, ustar=ustar)
    # the mutant's assembly, with its couplings' similarity, and Noda's
    # whole iteration
    assert pair.iterations >= 2
    assert counting.calls == {"species": 1, "noda": 1}
    counting.calls.clear()
    # five residents cut by _STACK_DOFS into stacks of 2, 2 and 1: one
    # assembly and one run per stack
    monkeypatch.setattr(operators, "_STACK_DOFS", 2 * grid.num_reduced)
    pc.solve_resident_steady_states(LAND, ENV, [*STAGGERED, RESIDENT], grid)
    assert counting.calls == {"species": 3, "newton": 3}


def species_buffers():
    """The arguments of the kernel's ``species`` for two species on a grid of
    three patches, by name, in order."""
    grid = pc.build_grid(pc.Landscape([0.0, 1.0, 1.5, 3.0]), per_patch=[4, 4, 5])
    species = [pc.SpeciesTraits([1.0, 0.8, 1.3], [2.0, 0.6]),
               pc.SpeciesTraits([0.5, 1.1, 0.9], [1.4, 3.0])]
    rows, full, size = len(species), grid.num_dofs, grid.num_reduced
    return {
        "offsets": grid.offsets(), "trap": grid.trapezoid_weights(),
        "h": grid.spacings(),
        "scales": np.array([one.cumulative_scales() for one in species]),
        "d": np.array([one.d for one in species]),
        "p": np.array([one.p_array for one in species]),
        "p2": np.array([one.p_squares for one in species]),
        "mass": np.empty((rows, full)),
        **{name: np.empty((rows, size)) for name in ("w", "lo", "di", "up", "s", "s2", "off")},
    }


def newton_buffers():
    """The arguments of the kernel's ``newton`` for a stack of two residents
    on a small grid, from their capacity start, by name, in order."""
    grid = pc.build_grid(LAND, per_patch=6)
    problem = steady._SteadyProblem(grid, ENV, [RESIDENT, MUTANT])
    layout, rows = problem.layout, len(problem.a)
    return {
        "lo": layout.lo, "di": layout.di, "up": layout.up, "s": layout.s, "off": layout.off,
        "a": problem.a, "b": problem.b,
        "u": np.maximum(layout.fill(ENV.k_array), problem.a / problem.b),
        "n": grid.num_reduced, "norm": np.empty(rows), "converged": np.empty(rows, bool),
        "steps": np.empty(rows, np.intp), "cap": 2.0, "tol": 1e-10, "max_iters": 50,
    }


def noda_buffers():
    """The arguments of the kernel's ``noda`` for the linearizations of two
    mutants on a small grid, from their start vectors, by name, in order."""
    grid = pc.build_grid(LAND, per_patch=6)
    layout = operators.SpeciesLayout(grid, [RESIDENT, MUTANT])
    di = layout.di + layout.restrict_diag(np.full((2, grid.num_dofs), 0.3))
    return {
        "lo": layout.lo, "di": di, "up": layout.up, "s": layout.s, "w": layout.s2,
        "off": layout.off, "x": eigen._start_vectors(layout), "n": grid.num_reduced,
        "theta": np.empty(2), "res": np.empty(2), "done": np.empty(2, bool),
        "counts": np.empty(2, np.intp), "tol": 1e-13, "max_iters": 50,
    }


def _spoiled(good: np.ndarray):
    """Buffers like ``good`` that the kernel refuses: too short, of another
    dtype and not C-contiguous."""
    other = np.float32 if good.dtype == np.float64 else np.intc
    return (good.ravel()[:-1].copy(), good.astype(other), np.repeat(good, 2)[::2])


@pytest.mark.parametrize(
    "entry,buffers,outputs",
    [("species", species_buffers,
      ("mass", "w", "lo", "di", "up", "s", "s2", "off")),
     ("newton", newton_buffers, ("u", "norm", "converged", "steps")),
     ("noda", noda_buffers, ("x", "theta", "res", "done", "counts"))],
)
def test_the_assembly_entries_refuse_wrong_buffers(ldlt_kernel, entry, buffers, outputs):
    # the assembly and the two solver loops, each on a stack of two species
    call = getattr(ldlt_kernel, entry)
    good = buffers()
    # noda returns the blocks that stopped, the others 0
    assert call(*good.values()) == (2 if entry == "noda" else 0)
    for name, value in good.items():
        if not isinstance(value, np.ndarray):
            continue
        for bad in _spoiled(value):
            with pytest.raises(ValueError):
                call(*{**good, name: bad}.values())
    for name in outputs:
        frozen = good[name].copy()
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            call(*{**good, name: frozen}.values())
        # one species' worth too many
        longer = np.empty((len(good[name]) + 1,) + good[name].shape[1:], good[name].dtype)
        with pytest.raises(ValueError):
            call(*{**good, name: longer}.values())
    with pytest.raises(TypeError):
        call(*list(good.values())[:-1])
    if entry == "species":
        # offsets that do not start at 0 or give a patch a single DOF
        for offsets in ([1, 6, 10, 16], [0, 5, 6, 16]):
            with pytest.raises(ValueError):
                call(*{**good, "offsets": np.array(offsets, np.intp)}.values())
    else:
        # no block size, not whole blocks, a negative cap
        for name, value in (("n", 0), ("n", 4), ("max_iters", -1)):
            with pytest.raises(ValueError):
                call(*{**good, name: value}.values())


def test_the_figures_stop_on_different_iterations_in_one_run(ldlt_kernel, monkeypatch):
    # each run's own step counts, the same on both routes
    grid = pc.build_grid(LAND, per_patch=60)
    stalling_grid = pc.build_grid(STALLING, per_patch=9)
    run = steady._SteadyProblem.run
    routes = []
    for kernel in (ldlt_kernel, None):
        monkeypatch.setattr(operators, "_ldlt", kernel)
        runs = []

        def spy(self, u0, config):
            out = run(self, u0, config)
            runs.append((out[2].tolist(), out[3].tolist()))
            return out

        monkeypatch.setattr(steady._SteadyProblem, "run", spy)
        pc.solve_resident_steady_states(LAND, ENV, STAGGERED, grid)
        pc.solve_resident_steady(STALLING, STALLING_ENV, STALLING_TRAITS, stalling_grid)
        routes.append(runs)
    (converged, steps), (stalling, _) = routes[0]
    # the four blocks stop on three different iterations, all converged
    assert converged == [True] * 4 and len(set(steps)) == 3
    assert stalling == [True]
    assert routes[0] == routes[1]


class TestTypedLoopFailures:
    """Each refusal of the two solver loops reaches its typed error through
    a real input, on both routes: a stack of one operator ``tridiag(1, -2,
    1)`` from a linear start, solved by ``eigen._noda``."""

    @pytest.fixture(params=["kernel", "numpy"])
    def route(self, request, monkeypatch):
        if request.param == "kernel":
            request.getfixturevalue("ldlt_kernel")
        else:
            monkeypatch.setattr(operators, "_ldlt", None)

    @staticmethod
    def solve(off_factor: float = 1.0, tiny: int | None = None):
        """The solve with the couplings of the similarity times
        ``off_factor`` and the start's entry ``tiny``, if any, 1e-310."""
        n = 8
        lo, up = np.ones((1, n)), np.ones((1, n))
        lo[:, 0] = up[:, -1] = 0.0
        di = np.full((1, n), -2.0)
        s, w, off = symmetrizing_similarity(lo, up)
        x = np.linspace(0.5, 1.0, n)[None]
        if tiny is not None:
            x[0, tiny] = 1e-310
        with np.errstate(over="ignore"):
            return eigen._noda(lo, di, up, s, w, off_factor * off, x)

    def test_a_shift_that_is_not_finite_raises_value_error(self, route):
        # (A x) / x overflows at the tiny entry
        with pytest.raises(ValueError, match="shift must be finite"):
            self.solve(tiny=3)

    def test_an_indefinite_shifted_matrix_raises_eigen_solve_error(self, route):
        # couplings ten times the operator's: sigma - S A S⁻¹ as factored is
        # indefinite
        with pytest.raises(pc.EigenSolveError, match="shifted operator is not positive definite"):
            self.solve(off_factor=10.0)

    def test_a_solve_that_is_not_positive_raises_eigen_solve_error(self, route):
        # couplings of the wrong sign: the factor is positive definite, its
        # solve of a positive right-hand side changes sign
        with pytest.raises(pc.EigenSolveError, match="^principal eigenpair not isolated"):
            self.solve(off_factor=-1.0)

    def test_the_solve_cap_raises_did_not_converge(self, route, monkeypatch):
        assert self.solve()[3][0] >= 2
        monkeypatch.setattr(eigen, "MAX_ITERS", 1)
        with pytest.raises(pc.EigenSolveError, match="did not converge"):
            self.solve()
        monkeypatch.setattr(eigen, "MAX_ITERS", 0)
        with pytest.raises(pc.EigenSolveError, match="did not converge"):
            self.solve()


def test_the_kernel_keeps_scipy_off_the_import_path():
    # with the kernel, importing the package and the CLI, and solving, leave
    # scipy unimported; without it only a solve imports scipy
    done = _run(SCIPY_REPORT, PYTHONPATH=str(SRC))
    assert done.returncode == 0, done.stderr
    kernel, imported, solved = done.stdout.split()
    assert imported == "False"
    assert solved == str(kernel == "False")


def test_both_routes_give_the_same_numbers(monkeypatch):
    kernel = figures()
    monkeypatch.setattr(operators, "_ldlt", None)
    lapack = figures()
    for name, got in kernel.items():
        assert np.array_equal(got, lapack[name], equal_nan=True), name


def _copy_of_the_package(tmp_path: Path) -> Path:
    """A copy of ``src/patchcomp`` without its caches; returns its root."""
    root = tmp_path / "site"
    shutil.copytree(SRC / "patchcomp", root / "patchcomp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, **env), capture_output=True,
        text=True, timeout=300,
    )


def _cached(root: Path) -> list[str]:
    return sorted(p.name for p in (root / "patchcomp" / "__pycache__").glob("_ldlt-*"))


def test_without_a_compiler_the_package_runs_lapack_with_the_same_numbers(tmp_path):
    root = _copy_of_the_package(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    done = _run(FIGURES_REPORT, PATH=str(empty), PYTHONPATH=str(root))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    status, numbers = done.stdout.splitlines()
    kernel, where = status.split()
    assert kernel == "False"
    assert Path(where).is_relative_to(root)
    assert json.loads(numbers) == figures_hex()
    assert _cached(root) == []


def test_the_kernel_is_built_once_and_then_loaded_without_a_process(tmp_path):
    root = _copy_of_the_package(tmp_path)
    built = c_compiler()
    first = _run(POPEN_REPORT, PYTHONPATH=str(root))
    assert first.returncode == 0 and first.stderr == "", first.stderr
    # the build is the one process an import starts, and only the first
    assert first.stdout.split() == [str(built), "1" if built else "0"]
    cached = _cached(root)
    assert len(cached) == built and not [name for name in cached if name.endswith(".tmp")]
    second = _run(POPEN_REPORT, PYTHONPATH=str(root))
    assert second.stdout.split() == [str(built), "0"]
    assert _cached(root) == cached


@pytest.mark.skipif(not c_compiler(), reason="no C compiler to build the LDLᵀ kernel")
def test_the_kernel_compiles_without_a_warning(tmp_path):
    # the CPython method signatures leave ``module`` unused, hence the one -Wno
    command = [*sysconfig.get_config_var("CC").split(), *_native.FLAGS, "-Wall", "-Wextra",
               "-Wno-unused-parameter", "-Werror", "-I" + sysconfig.get_path("include"),
               str(_native.SOURCE), "-o", str(tmp_path / "_ldlt.so")]
    done = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.skipif(not c_compiler(), reason="no C compiler to build the LDLᵀ kernel")
def test_a_new_build_removes_the_old_one(tmp_path):
    root = _copy_of_the_package(tmp_path)
    first = _run(POPEN_REPORT, PYTHONPATH=str(root))
    assert first.stdout.split() == ["True", "1"], first.stderr
    (old,) = _cached(root)
    # another interpreter's build and a concurrent build's temporary file
    cache = root / "patchcomp" / "__pycache__"
    kept = ["_ldlt-0123456789abcdef.cpython-399-other.so", f"{old}.4242.tmp"]
    for name in kept:
        (cache / name).write_bytes(b"")
    source = root / "patchcomp" / "_ldlt.c"
    source.write_text(source.read_text() + "/* another source */\n")
    second = _run(POPEN_REPORT, PYTHONPATH=str(root))
    assert second.stdout.split() == ["True", "1"], second.stderr
    (new,) = set(_cached(root)) - set(kept)
    assert new != old
    assert _cached(root) == sorted([new, *kept])


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie waiting to be reaped
    counts), waiting up to 10 s."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                return True
        except (FileNotFoundError, ProcessLookupError):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("script", ["exit 1", 'sleep 60 &\necho $! > "$0.child"\nwait'],
                         ids=["fails", "times_out"])
def test_a_failed_build_is_silent_and_leaves_nothing_behind(tmp_path, monkeypatch, script):
    # a compiler that fails, and one that outlasts the build's timeout with a
    # child of its own: both leave the LAPACK route, no file and no process
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\n{script}\n")
    compiler.chmod(0o755)
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", str(compiler))
    monkeypatch.setattr(_native, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(_native, "BUILD_TIMEOUT_S", 1.0)
    assert _native.load_ldlt() is None
    assert list((tmp_path / "cache").iterdir()) == []
    child = tmp_path / "cc.child"
    assert child.exists() == ("sleep" in script)
    if child.exists():
        assert _gone(int(child.read_text()))
