"""Comparison systems: single-hidden-layer feedforward classifiers (pixel or
patch inputs, one acquisition date each) and their four-date
joint-probability fusion.

Fusion multiplies the per-date posteriors and renormalizes; it is computed in
the log domain with probabilities floored at 1e-300 so a hard zero from one
member annihilates the class without overflowing.

The checkpoint's flat layout W1, b1, W2, b2 (row-major each) is the
`FfnGradients` field order, so `ffn_from_flat` cuts a flat vector into views
with `core_math.flat_views`, and `optimizer.train_arrays` trains a copy whose
arrays are views of one flat buffer in that order, as it does an LSTM.
`ffn_backward_batch` writes into the views of the fit's one flat gradient
buffer through `out`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import flat_views, sigmoid, softmax
from .errors import ShapeError

HIDDEN_WIDTH = 200  # production hidden-layer width for all feedforward baselines

PROB_FLOOR = 1e-300


@dataclass
class FfnParams:
    """One fully connected hidden layer between the input and a softmax output."""

    w1: np.ndarray  # (hidden, input_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (num_classes, hidden)
    b2: np.ndarray  # (num_classes,)
    activation: str = "sigmoid"  # or "tanh"

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def num_classes(self) -> int:
        return self.b2.shape[0]


@dataclass
class FfnGradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class FusionEnsemble:
    """Four single-date classifiers fused through joint class probabilities."""

    members: list[FfnParams]

    def __post_init__(self):
        dims = {(m.input_dim, m.num_classes) for m in self.members}
        if len(dims) > 1:
            raise ShapeError("fusion members disagree on input_dim/num_classes")

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

    @property
    def hidden_dim(self) -> int:
        return self.members[0].hidden_dim


def init_ffn_params(input_dim: int, num_classes: int, rng: np.random.Generator,
                    hidden_dim: int = HIDDEN_WIDTH, activation: str = "sigmoid") -> FfnParams:
    """Uniform init in [-s, s] with s = 1/sqrt(fan_in); zero biases."""
    if activation not in ("sigmoid", "tanh"):
        raise ValueError(f"unknown hidden activation {activation!r}")
    s1 = 1.0 / np.sqrt(input_dim)
    s2 = 1.0 / np.sqrt(hidden_dim)
    return FfnParams(
        w1=rng.uniform(-s1, s1, size=(hidden_dim, input_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-s2, s2, size=(num_classes, hidden_dim)),
        b2=np.zeros(num_classes),
        activation=activation,
    )


def ffn_to_flat(params: FfnParams) -> np.ndarray:
    return np.concatenate([params.w1.ravel(), params.b1, params.w2.ravel(), params.b2])


FfnGradients.to_flat = ffn_to_flat  # gradients share the parameters' flat layout


def ffn_from_flat(flat: np.ndarray, input_dim: int, hidden_dim: int, num_classes: int,
                  activation: str = "sigmoid") -> FfnParams:
    """FfnParams whose arrays are views of the float64 vector flat in
    checkpoint order (W1, b1, W2, b2), not copies."""
    return FfnParams(*flat_views(np.asarray(flat, dtype=np.float64),
                                 [(hidden_dim, input_dim), (hidden_dim,),
                                  (num_classes, hidden_dim), (num_classes,)]),
                     activation=activation)


def _hidden_activation(params: FfnParams, pre: np.ndarray) -> np.ndarray:
    if params.activation == "sigmoid":
        return sigmoid(pre)
    if params.activation == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown hidden activation {params.activation!r}")


def ffn_forward_batch(params: FfnParams, x: np.ndarray):
    """Batched forward pass; returns (hidden activations, probabilities)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"ffn forward: inputs {x.shape}, expected (B, {params.input_dim})")
    hidden = _hidden_activation(params, x @ params.w1.T + params.b1)
    probs = softmax(hidden @ params.w2.T + params.b2, axis=1)
    return hidden, probs


def ffn_backward_batch(params: FfnParams, x: np.ndarray, hidden: np.ndarray,
                       probs: np.ndarray, labels: np.ndarray,
                       out: FfnGradients | None = None) -> FfnGradients:
    """Gradients of the summed cross entropy over the batch, written into
    out's arrays when it is given (new arrays otherwise)."""
    bsz = x.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(bsz), labels] -= 1.0
    dhidden = dlogits @ params.w2
    if params.activation == "sigmoid":
        dpre = dhidden * hidden * (1.0 - hidden)
    else:
        dpre = dhidden * (1.0 - hidden * hidden)
    if out is None:
        out = FfnGradients(*(np.empty_like(a) for a in (params.w1, params.b1, params.w2,
                                                         params.b2)))
    np.matmul(dpre.T, x, out=out.w1)
    dpre.sum(axis=0, out=out.b1)
    np.matmul(dlogits.T, hidden, out=out.w2)
    dlogits.sum(axis=0, out=out.b2)
    return out


def ffn_gradient(params: FfnParams, x: np.ndarray, label: int) -> FfnGradients:
    """Per-sample gradient (batch of one through the batched kernel)."""
    hidden, probs = ffn_forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])
    return ffn_backward_batch(params, x[None, :], hidden, probs, np.array([label]))


def fuse_probabilities(member_probs: np.ndarray) -> np.ndarray:
    """Renormalized product of member posteriors, via summed log probabilities.

    member_probs is (n_members, k) or (n_members, B, k); returns (k,) / (B, k).
    The floor only guards underflow; an exact zero from any member annihilates
    the class exactly.
    """
    member_probs = np.asarray(member_probs, dtype=np.float64)
    logs = np.log(np.maximum(member_probs, PROB_FLOOR))
    logs[member_probs == 0.0] = -np.inf
    return softmax(logs.sum(axis=0), axis=-1)


def fuse_classify_batch(ensemble: FusionEnsemble, xs: np.ndarray) -> np.ndarray:
    """Fused probabilities for xs of shape (B, n_members, input_dim)."""
    if xs.ndim != 3 or xs.shape[1] != len(ensemble.members):
        raise ShapeError(f"fusion batch: inputs {xs.shape}")
    member_probs = np.stack([
        ffn_forward_batch(member, xs[:, d, :])[1]
        for d, member in enumerate(ensemble.members)
    ])
    return fuse_probabilities(member_probs)

