"""Shard-parallel execution: a thread pool with one thread per usable core.

numpy releases the interpreter lock inside its kernels, so independent
shards of a batch (one window each, its forward and, when training, its
backward) run on separate cores as threads of one process.  While they run,
OpenBLAS is pinned to one thread per call through its own
``openblas_set_num_threads`` entry point, also when one worker runs them
all: a GEMM that would split over every core then stays on the core of its
shard instead of contending with the other shards, and sums in the same
order whatever the core count.  Where no such entry point is found the
shards run one after another in the caller, with no speed-up.

The pool, the ``ctypes`` handle and the thread-count probe are created on
first use, so a process that never shards pays none of them.
"""

from __future__ import annotations

import contextvars
import functools
import os
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# (getter, setter) symbol pairs of OpenBLAS builds: numpy's scipy-openblas
# wheels with 64-bit integers, and plain OpenBLAS with either integer width
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def blas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Get and set functions for the thread count of numpy's OpenBLAS, or None.

    Looks in the ``numpy.libs`` folder numpy's wheels bundle their OpenBLAS in.
    """
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _executor(workers: int):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mossl-shard")


def run_shards(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, the calls spread over the pool.

    Every call has finished when this returns or raises.  When calls raise,
    the error of the lowest shard is raised, as a serial loop would.  OpenBLAS
    runs one thread per call meanwhile, with one worker as with many, and
    gets its previous thread count back afterwards, also when a call raises.
    The calls must not call ``run_shards`` themselves.
    """
    blas = blas_thread_control()
    if blas is None:
        return [fn(i) for i in range(count)]
    from concurrent.futures import wait

    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        # each call sees the caller's context variables, numpy's error state among them
        pool = _executor(min(usable_cores(), count))
        futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(count)]
        wait(futures)
    finally:
        set_threads(previous)
    return [f.result() for f in futures]
