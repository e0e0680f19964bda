"""Build and load the native kernel, ``_ldlt.c``: the interleaved LDLᵀ,
the IMEX step, Noda's iteration and the steady Newton run, each whole, and
the assembly of ``operators``, one pass that writes a stack's layout, its
diffusion bands and their symmetrizing similarity.

``load_ldlt`` compiles the kernel once with the interpreter's own C compiler
(``sysconfig``'s ``CC``) into the package's ``__pycache__``, under a name
keyed by a hash of the source, the compile command and the extension suffix,
and loads it from there on every later import.  The build writes to a
temporary name and renames it into place, so a concurrent import sees a
whole file or none; it runs with a timeout, in its own process group, which
is killed if the timeout passes.  A successful build deletes the other
builds of the same extension suffix, ``_ldlt-<16 hex digits><suffix>``, so an
edited source leaves one file behind, not one per edit; the builds of other
interpreters, with other suffixes, and a concurrent build's temporary file
stay.  Without a compiler on ``PATH``, a writable
cache or the source, or when the build or the load fails, ``load_ldlt``
returns None, silently, and the package runs LAPACK (imported from scipy
on first use) and numpy instead, with the same numbers.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import re
import shutil
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_ldlt.c")
CACHE = Path(__file__).with_name("__pycache__")
# no -march and no fast-math: the kernel must round as LAPACK's reference
# pttrf/pttrs and numpy do, and -ffp-contract=off keeps GCC from fusing
# a*b - c
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 60.0


def load_ldlt():
    """The ``_ldlt`` extension module, built on first use; None if it cannot
    be built or loaded."""
    try:
        source = SOURCE.read_bytes()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        command = [*(sysconfig.get_config_var("CC") or "").split(), *FLAGS,
                   "-I" + sysconfig.get_path("include")]
        key = hashlib.sha256(
            b"\0".join((source, " ".join(command).encode(), suffix.encode()))
        ).hexdigest()[:16]
        path = CACHE / f"_ldlt-{key}{suffix}"
        if not path.exists() and not _build(command, path, suffix):
            return None
        spec = importlib.util.spec_from_file_location("patchcomp._ldlt", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def _build(command: list[str], path: Path, suffix: str) -> bool:
    """Compile ``SOURCE`` to ``path``, then delete the cache's other builds
    with the extension ``suffix``; True if it compiled.  Starts no process
    without a compiler on ``PATH`` or a writable cache."""
    import signal  # only a build needs these
    import subprocess

    if shutil.which(command[0]) is None:
        return False
    CACHE.mkdir(exist_ok=True)
    if not os.access(CACHE, os.W_OK):
        return False
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with subprocess.Popen(
            [*command, str(SOURCE), "-o", str(partial)], stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        ) as proc:
            try:
                built = proc.wait(BUILD_TIMEOUT_S) == 0
            except subprocess.TimeoutExpired:
                # the compiler's own children share its process group
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                built = False
        if built:
            os.replace(partial, path)
            _remove_other_builds(path, suffix)
        return built
    finally:
        partial.unlink(missing_ok=True)


def _remove_other_builds(path: Path, suffix: str) -> None:
    """Delete every ``_ldlt-<16 hex digits><suffix>`` in ``path``'s
    directory but ``path``; one that cannot be deleted (a process may hold
    it open where that locks it) stays."""
    other = re.compile(r"_ldlt-[0-9a-f]{16}" + re.escape(suffix))
    for old in path.parent.iterdir():
        if old != path and other.fullmatch(old.name):
            try:
                old.unlink()
            except OSError:
                pass
