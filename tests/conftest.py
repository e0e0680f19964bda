import shutil
import sysconfig

import numpy as np
import pytest

import patchcomp as pc
from patchcomp import operators


@pytest.fixture
def two_patch():
    """Generic asymmetric two-patch setup used across modules."""
    land = pc.Landscape([0.0, 1.0, 2.3])
    env = pc.PatchEnvironment(r=[1.3, 0.8], k=[1.0, 2.5])
    resident = pc.SpeciesTraits([1.0, 0.7], pc.StrategyVector([3.1]))
    mutant = pc.SpeciesTraits([0.6, 1.1], pc.StrategyVector([1.9]))
    return land, env, resident, mutant


@pytest.fixture
def unit_two_patch():
    """Symmetric landscape with capacity ratio 2 (the scan workhorse)."""
    land = pc.Landscape([0.0, 1.0, 2.0])
    env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
    return land, env


def traits(d, p):
    return pc.SpeciesTraits(d, pc.StrategyVector(p))


def rand_env(rng, n):
    """Random landscape + environment with O(1) patch lengths and rates."""
    lengths = rng.uniform(0.7, 1.4, n)
    bounds = np.concatenate(([0.0], np.cumsum(lengths)))
    land = pc.Landscape(bounds)
    env = pc.PatchEnvironment(r=rng.uniform(0.5, 2.0, n), k=rng.uniform(0.5, 2.0, n))
    return land, env


def c_compiler() -> bool:
    """Whether the interpreter's C compiler (``sysconfig``'s ``CC``) is on PATH."""
    command = (sysconfig.get_config_var("CC") or "").split()
    return bool(command) and shutil.which(command[0]) is not None


@pytest.fixture(scope="session")
def ldlt_kernel():
    """The loaded interleaved LDLᵀ kernel.  Skips where there is no compiler
    to build it; where there is one, a kernel that did not load fails."""
    kernel = operators._ldlt
    if kernel is None and not c_compiler():
        pytest.skip("no C compiler to build the LDLᵀ kernel")
    assert kernel is not None, "a C compiler is on PATH but the LDLᵀ kernel did not load"
    return kernel
