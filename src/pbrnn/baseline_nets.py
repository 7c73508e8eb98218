"""Comparison systems: single-hidden-layer feedforward classifiers (pixel or
patch inputs, one acquisition date each) and their four-date
joint-probability fusion.

Fusion multiplies the per-date posteriors and renormalizes; it is computed in
the log domain with probabilities floored at 1e-300 so a hard zero from one
member annihilates the class without overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import sigmoid, softmax
from .errors import ShapeError

HIDDEN_WIDTH = 200  # production hidden-layer width for all feedforward baselines

PROB_FLOOR = 1e-300

# Flat-array field order for checkpoints and the optimizer: W1,b1,W2,b2.


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

    @classmethod
    def zeros_like(cls, params: FfnParams) -> "FfnGradients":
        return cls(*(np.zeros_like(a) for a in (params.w1, params.b1, params.w2, params.b2)))

    def to_flat(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), self.b2])


@dataclass
class FusionEnsemble:
    """Four single-date classifiers fused through joint class probabilities."""

    members: list[FfnParams]
    date_ids: tuple[int, ...] = field(default_factory=tuple)

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

    @property
    def num_classes(self) -> int:
        return self.members[0].num_classes


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


def ffn_from_flat(flat: np.ndarray, input_dim: int, hidden_dim: int, num_classes: int,
                  activation: str = "sigmoid") -> FfnParams:
    flat = np.asarray(flat, dtype=np.float64)
    expected = hidden_dim * input_dim + hidden_dim + num_classes * hidden_dim + num_classes
    if flat.shape != (expected,):
        raise ShapeError(f"flat FFN params: got {flat.shape}, expected ({expected},)")
    pos = 0
    w1 = flat[pos:pos + hidden_dim * input_dim].reshape(hidden_dim, input_dim)
    pos += hidden_dim * input_dim
    b1 = flat[pos:pos + hidden_dim].copy(); pos += hidden_dim
    w2 = flat[pos:pos + num_classes * hidden_dim].reshape(num_classes, hidden_dim)
    pos += num_classes * hidden_dim
    b2 = flat[pos:].copy()
    return FfnParams(w1=w1.copy(), b1=b1, w2=w2.copy(), b2=b2, activation=activation)


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


def ffn_forward(params: FfnParams, x: np.ndarray) -> np.ndarray:
    """Probability vector softmax(W2 act(W1 x + b1) + b2) for one input."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ShapeError(f"ffn_forward: input {x.shape}, expected ({params.input_dim},)")
    _, probs = ffn_forward_batch(params, x[None, :])
    return probs[0]


def ffn_backward_batch(params: FfnParams, x: np.ndarray, hidden: np.ndarray,
                       probs: np.ndarray, labels: np.ndarray) -> FfnGradients:
    """Gradients of the summed cross entropy over the batch."""
    bsz = x.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(bsz), labels] -= 1.0
    grads = FfnGradients.zeros_like(params)
    grads.w2 += dlogits.T @ hidden
    grads.b2 += dlogits.sum(axis=0)
    dhidden = dlogits @ params.w2
    if params.activation == "sigmoid":
        dpre = dhidden * hidden * (1.0 - hidden)
    else:
        dpre = dhidden * (1.0 - hidden * hidden)
    grads.w1 += dpre.T @ x
    grads.b1 += dpre.sum(axis=0)
    return grads


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


def fuse_classify(ensemble: FusionEnsemble, per_date_inputs) -> tuple[int, np.ndarray]:
    """Joint-probability fusion over the ensemble's dates; lowest-id tie-break."""
    if len(per_date_inputs) != len(ensemble.members):
        raise ValueError(
            f"fusion expects {len(ensemble.members)} inputs, got {len(per_date_inputs)}")
    member_probs = np.stack([
        ffn_forward(member, x) for member, x in zip(ensemble.members, per_date_inputs)
    ])
    fused = fuse_probabilities(member_probs)
    return int(np.argmax(fused)), fused


def fuse_classify_batch(ensemble: FusionEnsemble, xs: np.ndarray) -> np.ndarray:
    """Fused probabilities for xs of shape (B, n_members, input_dim)."""
    if xs.ndim != 3 or xs.shape[1] != len(ensemble.members):
        raise ShapeError(f"fusion batch: inputs {xs.shape}")
    member_probs = np.stack([
        ffn_forward_batch(member, xs[:, d, :])[1]
        for d, member in enumerate(ensemble.members)
    ])
    return fuse_probabilities(member_probs)

