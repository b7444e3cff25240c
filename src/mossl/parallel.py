"""Shard-parallel execution: the caller and a pool drain the windows together.

numpy releases the interpreter lock inside its kernels, so independent
shards of a batch (one window each, its forward and, when training, its
backward) run on separate cores as threads of one process.  The calling
thread runs shards too, beside ``usable_cores() - 1`` pool workers, so one
usable core starts no thread, and the shard it runs reuses the heap the
caller's own work (an evaluation, say) left behind.  Every thread takes
window indices in order from one shared counter, and each finished shard
waits for its turn to fold its value into the caller's running result in
window order, so at most one shard value per thread is alive at a time.

While shards run, OpenBLAS is pinned to one thread per call through its own
``openblas_set_num_threads`` entry point, also when the caller runs them
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
import threading
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


_pool = None  # the process's one pool of usable_cores() - 1 workers, made on first use


def _executor():
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=usable_cores() - 1, thread_name_prefix="mossl-shard")
    return _pool


class _Drain:
    """Hands out windows 0, 1, ... from one counter and passes fold turns in window order.

    Any number of threads may call it at once; each returns when no window
    is left to take.  Once a call has raised, no further window is taken.
    """

    def __init__(self, fn: Callable[[int], T], count: int, fold: Callable[[int, T], None]):
        self.fn, self.count, self.fold = fn, count, fold
        self.base = contextvars.copy_context()  # the caller's, numpy's error state among it
        self.turn = threading.Condition()
        self.taken = 0  # windows handed out
        self.folded = 0  # windows whose fold turn has passed
        self.errors: dict[int, Exception] = {}
        self.abandoned = False  # a thread left by an error outside the calls

    def __call__(self) -> None:
        try:
            while (i := self._take()) is not None:
                self._finish(i)
        except BaseException:
            # a thread waiting for this one's turn would otherwise wait forever
            with self.turn:
                self.abandoned = True
                self.turn.notify_all()
            raise

    def _take(self) -> int | None:
        with self.turn:
            if self.errors or self.abandoned or self.taken == self.count:
                return None
            self.taken += 1
            return self.taken - 1

    def _finish(self, i: int) -> None:
        value = None
        try:
            value = self.base.copy().run(self.fn, i)  # each call under its own copy
        except Exception as exc:
            with self.turn:
                self.errors[i] = exc
        with self.turn:
            self.turn.wait_for(lambda: self.folded == i or self.abandoned)
            wanted = not (self.errors or self.abandoned)
        try:
            if wanted:
                self.fold(i, value)
        finally:
            with self.turn:
                self.folded += 1
                self.turn.notify_all()


def run_shards(fn: Callable[[int], T], count: int, fold: Callable[[int, T], None]) -> None:
    """``fold(i, fn(i))`` for i = 0, ..., count - 1: calls in parallel, folds in order.

    The caller and up to ``usable_cores() - 1`` pool workers take the calls
    in window order.  ``fold(i, value)`` runs as soon as call i and every
    lower call have finished, one fold at a time; the thread that ran call i
    waits for that turn before it takes another call.  Each call runs under
    its own copy of the caller's context variables.

    Every call has finished when this returns or raises.  When calls raise,
    no further call starts, nothing more is folded, and the error of the
    lowest window is raised, as a serial loop would.  OpenBLAS runs one
    thread per call meanwhile, with one core as with many, and gets its
    previous thread count back afterwards, also when a call raises.  The
    calls must not call ``run_shards`` themselves.
    """
    drain = _Drain(fn, count, fold)
    blas = blas_thread_control()
    if blas is None:
        drain()
    else:
        from concurrent.futures import wait

        get_threads, set_threads = blas
        previous = get_threads()
        set_threads(1)
        helpers = []
        try:
            helpers = [_executor().submit(drain) for _ in range(min(usable_cores(), count) - 1)]
            drain()
        finally:
            try:
                # after a drain raised, each helper ends its current call and returns
                wait(helpers)
            finally:
                set_threads(previous)
        for helper in helpers:
            helper.result()
    if drain.errors:
        raise drain.errors[min(drain.errors)]
