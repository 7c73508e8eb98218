"""ADAM optimizer and the mini-batch training loop for the sequence and
feedforward classifiers.

Training is fully deterministic given the shuffle seed: one full-dataset
permutation is drawn per epoch, per-sample gradients are averaged within each
mini-batch, and the ADAM update is applied between batches, in place, to the
trained copy's parameters.

Every fit, LSTM or feedforward, runs on one flat float64 buffer in the field
order of its gradient dataclass (`LstmGradients`, `FfnGradients`): the trained
copy's arrays are views of it, the backward pass writes into views of one
flat gradient buffer of the same layout, and each step is one ADAM update over
one array pair. Frozen LSTM gate biases get a zero gradient, so they stay
exactly zero. An LSTM fit records each batch into the previous batch's trace
when the shapes match, rather than free and fault in new arrays every step.

One call trains one model in the calling process; independent fits run in
forked worker processes one level up, in `core_math.map_in_workers`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baseline_nets, recurrent_nets
from .core_math import check_seed, flat_views, make_rng
from .errors import ConfigError, ShapeError

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 1e-4  # the published training rate
ADAM_BETA1 = 0.9    # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates of the trained array and the step
    counter of one fit."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray,
                cfg: TrainConfig) -> None:
    """One ADAM step with cfg's step size and the module's decays and epsilon;
    updates params and the moment state in place."""
    if not params.shape == np.shape(grad) == state.m.shape == state.v.shape:
        raise ShapeError(f"adam_update: params {params.shape}, gradient {np.shape(grad)}, "
                         f"moments {state.m.shape}, {state.v.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += ((1.0 - ADAM_BETA2) * grad) * grad
    params -= (cfg.learning_rate * (state.m / c1)) / (np.sqrt(state.v / c2) + ADAM_EPSILON)


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
        check_seed("config field 'shuffle_seed'", self.shuffle_seed)


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
        grad_type = recurrent_nets.LstmGradients
        trace = None

        def losses_and_gradients(xb, yb):
            nonlocal trace
            trace = recurrent_nets.forward_batch(model, xb, out=trace)
            recurrent_nets.backward_batch(model, trace, yb, out=grads)
            if not model.train_biases:
                grads.b.fill(0.0)  # so ADAM leaves the frozen gate biases exactly zero
            return recurrent_nets.batch_losses(trace.probs, yb)
    elif isinstance(model, baseline_nets.FfnParams):
        if xs.shape[1] != 1:
            raise ShapeError("feedforward training expects single-date samples (N == 1)")
        grad_type = baseline_nets.FfnGradients

        def losses_and_gradients(xb, yb):
            x2d = xb[:, 0, :]
            hidden, probs = baseline_nets.ffn_forward_batch(model, x2d)
            baseline_nets.ffn_backward_batch(model, x2d, hidden, probs, yb, out=grads)
            return recurrent_nets.batch_losses(probs, yb)
    else:
        raise TypeError(f"cannot train model of type {type(model).__name__}")

    # the trained copy and the gradients the closures above fill: views of one
    # new flat buffer each, in the gradient dataclass's field order
    names = [f.name for f in fields(grad_type)]
    shapes = [getattr(model, name).shape for name in names]
    flat = np.concatenate([getattr(model, name).ravel() for name in names])
    model = replace(model, **dict(zip(names, flat_views(flat, shapes))))
    grad = np.empty_like(flat)
    grads = grad_type(*flat_views(grad, shapes))
    state = AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat))
    rng = make_rng(cfg.shuffle_seed)
    count = xs.shape[0]
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(count)
        total_loss = 0.0
        for start in range(0, count, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses = losses_and_gradients(xs[batch], labels[batch])
            total_loss += float(losses.sum())
            np.divide(grad, batch.size, out=grad)
            adam_update(state, flat, grad, cfg)
        epoch_losses.append(total_loss / count)
        if not np.isfinite(epoch_losses[-1]):
            raise ValueError(f"epoch {epoch + 1}: mean training loss is {epoch_losses[-1]}")
        if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
            log.info("%sepoch %d mean_loss %.6f", log_prefix, epoch + 1, epoch_losses[-1])
    return TrainResult(params=model, epoch_losses=epoch_losses)


def loss_history_lines(epoch_losses) -> str:
    """Two-column text stream (epoch, mean_loss), one row per epoch."""
    return "\n".join(f"{i + 1} {loss:.12g}" for i, loss in enumerate(epoch_losses)) + "\n"
