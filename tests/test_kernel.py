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
from patchcomp import _native, operators, steady
from patchcomp.config import RunConfig
from patchcomp.dynamics import default_initial
from patchcomp.eigen import assemble_linearization, growth_potential

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
# profile stalls at 9 subintervals per patch: the steady solve restarts from
# the super-solution M c, and both Newton runs pivot in their LU.
STALLING = pc.Landscape(np.concatenate(([0.0], np.cumsum([1.519, 1.308, 0.898]))))
STALLING_ENV = pc.PatchEnvironment(r=[0.116, 7.261, 2.038], k=[0.123, 3.786, 0.166])
STALLING_TRAITS = pc.SpeciesTraits([0.388, 0.026, 15.799], [2.331, 3.051])
# Residents whose stacked capacity-start Newton runs stop on three different
# iterations; the last one's LU pivots.
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
    that stop on different Newton iterations, and a steady state restarted
    from the super-solution."""
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
    restarted = pc.solve_resident_steady(
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
        "restarted": restarted.values,
    }


def figures_hex() -> dict:
    """``figures`` with every number written exactly."""
    return {name: [float(x).hex() for x in a.ravel()] for name, a in figures().items()}


class CountingKernel:
    """The loaded kernel, counting its calls by entry point; ``pivots``
    counts the interchanged rows of every ``gttrf``."""

    def __init__(self, kernel):
        self.kernel, self.calls, self.pivots = kernel, Counter(), 0

    def __getattr__(self, name):
        entry = getattr(self.kernel, name)

        def call(*args):
            self.calls[name] += 1
            out = entry(*args)
            if name == "gttrf":
                self.pivots += np.count_nonzero(args[4] != np.arange(1, args[4].size + 1))
            return out

        return call


def test_a_noda_pass_is_one_call_and_a_newton_step_two(ldlt_kernel, monkeypatch):
    counting = CountingKernel(ldlt_kernel)
    monkeypatch.setattr(operators, "_ldlt", counting)
    grid = pc.build_grid(LAND, per_patch=60)
    ustar = pc.solve_resident_steady(LAND, ENV, RESIDENT, grid)
    # one residual before the first step, then one residual and one LU
    # (factor and solve) per full Newton step
    assert set(counting.calls) == {"residual", "gttrf"}
    assert counting.calls["residual"] == counting.calls["gttrf"] + 1 >= 3
    counting.calls.clear()
    pair = pc.invasion_fitness(LAND, ENV, RESIDENT, MUTANT, grid, ustar=ustar)
    # every pass is one call, the last one only tests the stop
    assert pair.iterations >= 2 and counting.calls == {"noda": pair.iterations + 1}


def test_the_figures_pivot_restart_and_stop_on_different_iterations(ldlt_kernel, monkeypatch):
    counting = CountingKernel(ldlt_kernel)
    monkeypatch.setattr(operators, "_ldlt", counting)
    runs = []
    newton = steady.newton

    def spy(residual, u0, *args):
        out = newton(residual, u0, *args)
        runs.append(np.ravel(out[2]).tolist())
        return out

    monkeypatch.setattr(steady, "newton", spy)
    grid = pc.build_grid(LAND, per_patch=60)
    going = []  # the blocks of each stack that reaches the LU
    factor = steady.factor_blocks

    def factor_going(lo, di, up, rhs):
        going.append(len(rhs))
        return factor(lo, di, up, rhs)

    monkeypatch.setattr(steady, "factor_blocks", factor_going)
    pc.solve_resident_steady_states(LAND, ENV, STAGGERED, grid)
    # the four blocks stop on three different iterations: the stack of going
    # blocks shrinks twice from the whole stack
    assert len({len(STAGGERED), *going}) == 3
    assert counting.pivots > 0 and runs == [[True] * 4]
    counting.pivots, runs[:] = 0, []
    pc.solve_resident_steady(STALLING, STALLING_ENV, STALLING_TRAITS,
                             pc.build_grid(STALLING, per_patch=9))
    assert counting.pivots > 0 and runs == [[False], [True]]


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
