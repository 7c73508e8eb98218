"""Dense kernels every network module builds on.

Conventions: vectors are 1-D float64 numpy arrays, matrices are 2-D float64
numpy arrays (row-major). All operations are pure functions returning new
arrays, so values can be shared read-only across threads. The elementwise
kernels (sigmoid, softmax) also accept batched inputs and operate along the
last axis where that matters.

Randomness comes from numpy's PCG64 so that a recorded seed fully determines
every stream; the algorithm name is stored in checkpoints.
"""

from __future__ import annotations

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
    """Logistic function, evaluated on the numerically stable branch per sign.

    Saturates to 0/1 without overflow for any finite input.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def softmax(v, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along `axis`; sums to 1 and preserves the argmax."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape == () or v.shape[axis] == 0:
        raise ShapeError("softmax: empty input")
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)

