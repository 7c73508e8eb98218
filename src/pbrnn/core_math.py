"""Dense kernels every network module builds on.

Conventions: vectors are 1-D float64 numpy arrays, matrices are 2-D float64
numpy arrays (row-major). All operations are pure functions returning new
arrays, so values can be shared read-only by forked worker processes. The
elementwise kernels (sigmoid, softmax) also accept batched inputs and operate
along the last axis where that matters.

Randomness comes from numpy's PCG64 so that a recorded seed fully determines
every stream; the algorithm name is stored in checkpoints.

`map_in_workers` is the one pool and the one rule for running independent
tasks at once: the fits of `experiments` and the map chunks of
`sampling.classify_map`. It decides how many forked workers run them, with
OpenBLAS pinned to one thread while they do, so that the workers do not
oversubscribe the CPUs.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os

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


_worker_shared: tuple = ()


def _share(shared: tuple) -> None:
    """Pool initializer: the leading arguments of every task. Only workers ever
    set _worker_shared."""
    global _worker_shared
    _worker_shared = shared


def _run_task(fn, task):
    return fn(*_worker_shared, task)


def map_in_workers(fn, shared: tuple, tasks) -> list:
    """[fn(*shared, task) for task in tasks] in min(os.cpu_count(), len(tasks))
    forked worker processes, or serially in the calling process when that is
    one, with the OpenBLAS that numpy loaded set to one thread for the call
    and its thread count restored on exit, on an error too. Inside a worker
    process, or when no OpenBLAS is found, the tasks run serially and nothing
    is changed, so a nested call never opens a second pool.

    The workers are forked while OpenBLAS runs one thread and inherit it,
    shared (never pickled), the root log handlers and the caller's numpy error
    state; fn (a module-level function), the tasks and the results are
    pickled, the tasks in about four batches per worker. Results come back in
    task order; if several tasks fail, the first one's error is raised and the
    queued tasks are cancelled. The workers are joined before this returns.
    """
    threads = _openblas_threads()
    if threads is None or multiprocessing.parent_process() is not None:
        return [fn(*shared, task) for task in tasks]
    get, set_ = threads
    before = get()
    set_(1)
    try:
        workers = min(os.cpu_count() or 1, len(tasks))
        if workers <= 1:
            return [fn(*shared, task) for task in tasks]
        # imported here: it costs about 2 MB and most commands never use a pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_share, initargs=(shared,))
        try:  # the pool forks every worker at the first submit, inside this block
            # tasks travel in batches of multiprocessing.Pool.map's default size
            return list(pool.map(functools.partial(_run_task, fn), tasks,
                                 chunksize=-(-len(tasks) // (4 * workers))))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        set_(before)
