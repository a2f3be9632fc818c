"""Every process-wide setting driftcal makes, in one place.

- :func:`keep_freed_arrays` raises glibc's mmap and trim thresholds. It is
  set for the rest of the process and never undone.
- :func:`one_blas_thread` runs a block on one OpenBLAS thread and restores
  the previous pool sizes when the block ends.

Both reach their C controls through ctypes and do nothing where those are
absent.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from importlib.util import find_spec
from pathlib import Path

__all__ = ["keep_freed_arrays", "one_blas_thread"]

# glibc's mallopt parameters and the ceiling its adaptive mmap threshold can reach
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def keep_freed_arrays() -> None:
    """Have glibc keep freed arrays below 32 MiB in the heap instead of unmapping them.

    Every likelihood evaluation of the tuner allocates and frees the same
    n x d x n kernel temporaries. glibc unmaps or trims such blocks unless an
    earlier free in the process happened to raise its adaptive thresholds,
    and when it does not the pages are faulted in afresh on every evaluation.
    Pinning both thresholds at the ceiling glibc itself adapts to makes the
    tuner reuse the same pages whatever the process did before. The setting
    is process-wide; it does nothing where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


# The OpenBLAS builds numpy and scipy wheels bundle next to their package,
# with the suffix of their thread-count controls: numpy's has 64-bit integers.
_OPENBLAS_BUILDS = (("numpy", "64_"), ("scipy", ""))


@functools.cache
def _blas_pools() -> tuple:
    """The ``(get, set)`` thread-count controls of every bundled OpenBLAS found.

    The packages are located with ``find_spec``, which runs no package init:
    looking up scipy's pool does not import scipy.
    """
    pools = []
    for package, suffix in _OPENBLAS_BUILDS:
        libs = Path(find_spec(package).origin).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
    return tuple(pools)


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS pool at one thread, then restore their sizes.

    A Cholesky factor of 128 rows or more comes out of OpenBLAS with last
    bits that depend on the pool size, so a kernel factored on the default
    pool, one thread per core, differs between hosts. The controls are
    looked up on first use; where none is found the block runs as it is.
    Nesting is allowed: an inner block restores the one thread of the
    outer.
    """
    pools = _blas_pools()
    saved = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)
