import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchcomp as pc
from patchcomp.dynamics import default_initial

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOCATOR_ENVIRONMENT = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
    "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES",
)

# Imports patchcomp (and its submodules) under an audit hook that records
# every symbol looked up through ctypes, then prints whether the settings
# applied and how many times ``mallopt`` was looked up.
IMPORT_REPORT = """
import sys
symbols = []
sys.addaudithook(
    lambda event, args: symbols.append(args[1]) if event == "ctypes.dlsym" else None
)
import patchcomp, patchcomp.cli, patchcomp.config, patchcomp.validate
print(patchcomp._ALLOCATOR_TUNED, symbols.count("mallopt"))
"""


def _has_glibc_mallopt() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallopt")
    except (AttributeError, ValueError, OSError):
        return False


def _import_report(**allocator_env) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in ALLOCATOR_ENVIRONMENT}
    env.update(allocator_env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_REPORT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout.split()


def test_an_allocator_setting_in_the_environment_is_left_alone():
    assert _import_report(MALLOC_TRIM_THRESHOLD_="131072") == ["False", "0"]


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_a_plain_import_sets_both_thresholds_once():
    assert _import_report() == ["True", "1"]


@pytest.mark.skipif(not pc._ALLOCATOR_TUNED, reason="the allocator settings did not apply")
def test_fresh_steppers_do_not_fault_their_arrays_again():
    # the order-preservation harness's op: a fresh stepper and 20 steps of
    # two states at 8,001 reduced DOFs; with glibc's defaults about 750
    # minor faults each
    import resource

    land = pc.Landscape([0.0, 1.0, 2.0])
    env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
    resident = pc.SpeciesTraits([1.0, 1.0], [3.0])
    mutant = pc.SpeciesTraits([1.0, 1.0], [1.5])
    grid = pc.build_grid(land, per_patch=4000)
    u, v = default_initial(grid, env)

    def op():
        stepper = pc.Stepper(land, env, resident, mutant, grid)
        preserved, _, _ = pc.order_preservation_check((u, 0.5 * v), (0.5 * u, v), stepper, 20)
        assert preserved

    op()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        op()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 50
