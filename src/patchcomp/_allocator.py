"""glibc allocator settings that keep freed arrays in the process heap.

With glibc's defaults an array of more than 128 KiB is mmapped and returned
to the kernel when it is freed (the threshold then slides up to the largest
size freed, at most 32 MiB), and a free top of the heap over 128 KiB is
trimmed.  A solve that builds and frees a few MB of arrays per call then
page-faults every 4 KiB of them again on the next call: about 750 minor
faults per fresh ``Stepper`` and 20 steps at 8,001 reduced DOFs.  Fixing
both thresholds keeps that memory in the heap.  Either one alone is worse
than neither: it stops the sliding and leaves the other at 128 KiB, so the
256 KiB step arrays are mmapped, or trimmed off the heap top, on every step.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers, from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its sliding mmap threshold (64-bit), and twice that
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
# an allocator setting in the environment is the user's, and is left alone
_ENVIRONMENT = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
    "MALLOC_MMAP_MAX_",
)


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds for this process; True if both
    were set.  Does nothing without glibc, or where the environment already
    sets its allocator (``MALLOC_*_`` or ``glibc.malloc`` tunables)."""
    if any(name in os.environ for name in _ENVIRONMENT):
        return False
    if "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's mallopt returns 1 on success, 0 on error
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
