"""ADAM optimizer and the mini-batch training loop for the sequence and
feedforward classifiers.

Training is fully deterministic given the shuffle seed: one full-dataset
permutation is drawn per epoch, per-sample gradients are averaged within each
mini-batch, and the ADAM update is applied between batches, in place, to the
trained copy's parameters.

- A feedforward fit runs on one flat float64 buffer in checkpoint order
  (W1, b1, W2, b2): the trained copy's arrays are views of it, the backward
  pass writes into views of one flat gradient buffer of the same layout, and
  each step is one ADAM update over one array pair. A per-array update costs
  about 15 numpy calls per array, which dominates a step of the small pixel
  networks.
- An LSTM fit updates the trained copy's own arrays, each paired with the
  gradient field of the same name. The checkpoint interleaves the gate blocks
  (Wx, Wh, b per gate), so the stacked arrays the kernels use cannot be views
  of one flat vector in that order; and frozen gate biases are left out of
  the update.

One call trains one model in the calling process; independent fits run in
forked worker processes one level up, in `core_math.map_in_workers`.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import baseline_nets, recurrent_nets
from .core_math import make_rng
from .errors import ConfigError, ShapeError

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 1e-4  # the published training rate
ADAM_BETA1 = 0.9    # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates, one pair per trained array, and the
    step counter of one fit."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_arrays(cls, arrays) -> "AdamState":
        return cls(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays])


def adam_update(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray],
                cfg: TrainConfig) -> None:
    """One ADAM step with cfg's step size and the module's decays and epsilon;
    updates the params arrays and the moment state in place."""
    if len(grads) != len(params) or len(state.m) != len(params) or any(
            p.shape != np.shape(g) or p.shape != m.shape
            for p, g, m in zip(params, grads, state.m)):
        shapes = [[np.shape(a) for a in arrays] for arrays in (params, grads, state.m)]
        raise ShapeError("adam_update: params {}, grads {}, moments {}".format(*shapes))
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += ((1.0 - ADAM_BETA2) * g) * g
        p -= (cfg.learning_rate * (m / c1)) / (np.sqrt(v / c2) + ADAM_EPSILON)


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 30
    shuffle_seed: int = 0
    log_every: int = 10                           # 0 = never
    learning_rate: float = DEFAULT_LEARNING_RATE  # ADAM step size

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("config field 'batch_size' must be >= 1")
        if self.epochs < 1:
            raise ConfigError("config field 'epochs' must be >= 1")
        if self.log_every < 0:
            raise ConfigError("config field 'log_every' must be >= 0 (0 = never)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("config field 'learning_rate' must be finite and positive")


@dataclass
class TrainResult:
    params: object                      # trained LstmParams or FfnParams
    epoch_losses: list[float]           # mean per-sample loss per epoch


def stack_samples(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Stack SampleSequence-like objects into (S, N, D) inputs and (S,) labels."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    vectors = []
    labels = []
    for sample in dataset:
        v = np.asarray(getattr(sample, "vectors", sample), dtype=np.float64)
        label = getattr(sample, "label", None)
        if label is None:
            raise ValueError("training requires labeled samples")
        vectors.append(v)
        labels.append(int(label))
    xs = np.stack(vectors)
    return xs, np.asarray(labels, dtype=np.int64)


def train_arrays(model, xs: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
                 log_prefix: str = "") -> TrainResult:
    """Mini-batch ADAM training of a copy of model over prepared arrays
    xs (S, N, D), labels (S,); model itself is left unchanged. log_prefix
    leads each epoch's log line.

    Raises ValueError naming the epoch whose mean loss is not finite.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if xs.ndim != 3 or xs.shape[0] != labels.shape[0] or xs.shape[0] == 0:
        raise ValueError(f"bad training arrays: inputs {xs.shape}, labels {labels.shape}")
    if isinstance(model, recurrent_nets.LstmParams):
        names = [f.name for f in fields(recurrent_nets.LstmGradients)
                 if model.train_biases or f.name != "b"]  # frozen gate biases stay zero
        model = copy.deepcopy(model)
        arrays = [getattr(model, name) for name in names]

        def losses_and_mean_gradients(xb, yb):
            trace = recurrent_nets.forward_batch(model, xb)
            grads = recurrent_nets.backward_batch(model, trace, yb)
            return (recurrent_nets.batch_losses(trace.probs, yb),
                    [getattr(grads, name) / yb.size for name in names])
    elif isinstance(model, baseline_nets.FfnParams):
        if xs.shape[1] != 1:
            raise ShapeError("feedforward training expects single-date samples (N == 1)")
        dims = (model.input_dim, model.hidden_dim, model.num_classes)
        flat = baseline_nets.ffn_to_flat(model)  # a new array: the trained copy's buffer
        model = baseline_nets.ffn_from_flat(flat, *dims, activation=model.activation)
        arrays = [flat]
        grad = np.empty_like(flat)
        grad_views = baseline_nets.FfnGradients(*baseline_nets.ffn_views(grad, *dims))

        def losses_and_mean_gradients(xb, yb):
            x2d = xb[:, 0, :]
            hidden, probs = baseline_nets.ffn_forward_batch(model, x2d)
            baseline_nets.ffn_backward_batch(model, x2d, hidden, probs, yb, out=grad_views)
            np.divide(grad, yb.size, out=grad)
            return recurrent_nets.batch_losses(probs, yb), [grad]
    else:
        raise TypeError(f"cannot train model of type {type(model).__name__}")

    state = AdamState.for_arrays(arrays)
    rng = make_rng(cfg.shuffle_seed)
    count = xs.shape[0]
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(count)
        total_loss = 0.0
        for start in range(0, count, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses, mean_grads = losses_and_mean_gradients(xs[batch], labels[batch])
            total_loss += float(losses.sum())
            adam_update(state, arrays, mean_grads, cfg)
        epoch_losses.append(total_loss / count)
        if not np.isfinite(epoch_losses[-1]):
            raise ValueError(f"epoch {epoch + 1}: mean training loss is {epoch_losses[-1]}")
        if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
            log.info("%sepoch %d mean_loss %.6f", log_prefix, epoch + 1, epoch_losses[-1])
    return TrainResult(params=model, epoch_losses=epoch_losses)


def loss_history_lines(epoch_losses) -> str:
    """Two-column text stream (epoch, mean_loss), one row per epoch."""
    return "\n".join(f"{i + 1} {loss:.12g}" for i, loss in enumerate(epoch_losses)) + "\n"
