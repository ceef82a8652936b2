"""Runtime policy of an engine process: one OpenBLAS thread and fixed glibc
heap thresholds, both set through ctypes.

A task's products are small enough that a second OpenBLAS thread only
spins, and a --workers pool then pays that CPU once per worker; the
worker processes are the engine's only parallelism. Either half is a
no-op where its symbol is missing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

# glibc mallopt parameters, and the values an engine process fixes them at.
# Fixing them turns off glibc's dynamic thresholds, under which a task's few
# MB of temporaries were trimmed and re-faulted on every op. 32 MB is the
# largest mmap threshold glibc takes on a 64-bit host.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_TRIM_THRESHOLD = 256 << 20
HEAP_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _blas_thread_calls():
    """(set, get) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy bundles no library that exports them."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


@functools.cache
def _glibc_mallopt():
    """glibc's mallopt, or None where the C library is not glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return None
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _fix_heap() -> None:
    """Fix glibc's heap thresholds, once per process. glibc cannot report
    them, so they stay set for the rest of the process."""
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)


def _pin_worker() -> None:
    """One BLAS thread and fixed heap thresholds; as the pool initializer,
    the engine's runtime policy for a worker's life."""
    _fix_heap()
    blas = _blas_thread_calls()
    if blas is not None:
        blas[0](1)


@contextlib.contextmanager
def _runtime_policy():
    """Run the block under _pin_worker's policy and put the caller's BLAS
    thread count back after it."""
    blas = _blas_thread_calls()
    before = None if blas is None else blas[1]()
    _pin_worker()
    try:
        yield
    finally:
        if before is not None:
            blas[0](before)
