"""Dense kernels every network module builds on.

Conventions: vectors are 1-D float64 numpy arrays, matrices are 2-D float64
numpy arrays (row-major). All operations are pure functions returning new
arrays, so values can be shared read-only across threads. The elementwise
kernels (sigmoid, softmax) also accept batched inputs and operate along the
last axis where that matters.

Randomness comes from numpy's PCG64 so that a recorded seed fully determines
every stream; the algorithm name is stored in checkpoints.

`parallel_workers` is the one rule for running independent tasks at once:
how many workers run them, and OpenBLAS pinned to one thread while they do,
so that the workers (threads or forked processes) do not oversubscribe the
CPUs.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError

RNG_ALGORITHM = "PCG64"


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator: identical seed, identical stream.

    `seed` may be an int or a sequence of ints (used to derive independent
    sub-streams, e.g. one per scene).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def sigmoid(v) -> np.ndarray:
    """Logistic function, evaluated without branches on the numerically stable
    form per sign: 1 / (1 + e) for v >= 0 and e / (1 + e) below, with
    e = exp(-|v|).

    Saturates to 0/1 without overflow for any finite input. -|v| is taken as
    min(v, -v), which keeps a NaN's sign bit. The numerator is exp(min(v, 0)):
    the same exp as e below zero and exp(+-0) = 1.0 at or above it, a NaN
    passing through. So every output bit (NaN payloads included) equals that
    of the per-sign evaluation.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(np.minimum(v, -v))
    out = np.exp(np.minimum(v, 0.0))
    out /= 1.0 + e
    return out


def softmax(v, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along `axis`; sums to 1 and preserves the argmax."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape == () or v.shape[axis] == 0:
        raise ShapeError("softmax: empty input")
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# (getter, setter) symbol pairs: the numpy wheel's scipy-openblas, a 64-bit
# integer OpenBLAS, a plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS loaded into this
    process, or None when none is found (no procfs, or another BLAS)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get, set_ in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(handle, get) and hasattr(handle, set_):
                return getattr(handle, get), getattr(handle, set_)
    return None


@contextmanager
def parallel_workers(tasks: int):
    """Yield how many workers run `tasks` independent tasks:
    min(os.cpu_count(), tasks), at least 1, with the OpenBLAS that numpy
    loaded set to one thread for the block and its thread count restored on
    exit, on an error too. Inside a worker process, or when no OpenBLAS is
    found, yields 1 and changes nothing, so the caller runs its tasks
    serially."""
    threads = _openblas_threads()
    if threads is None or multiprocessing.parent_process() is not None:
        yield 1
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield max(1, min(os.cpu_count() or 1, tasks))
    finally:
        set_(before)
