"""ADAM optimizer and the mini-batch training loop for the sequence and
feedforward classifiers.

Training is fully deterministic given the shuffle seed: one full-dataset
permutation is drawn per epoch, per-sample gradients are averaged within each
mini-batch, and the ADAM update is applied to the flat parameter array
between batches. One call trains one model in the calling process;
independent fits run in worker processes one level up, in
`experiments.map_in_workers`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
    """First/second moment estimates over a flat parameter array."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_size(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_update(state: AdamState, params: np.ndarray, grads: np.ndarray,
                cfg: TrainConfig) -> np.ndarray:
    """One ADAM step with cfg's step size and the module's decays and epsilon;
    mutates the moment state, returns the updated parameters."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"adam_update: params {params.shape}, grads {grads.shape}, moments {state.m.shape}")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


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


def _lstm_batch_step(params, xb, yb):
    trace = recurrent_nets.forward_batch(params, xb)
    losses = recurrent_nets.batch_losses(trace.probs, yb)
    grads = recurrent_nets.backward_batch(params, trace, yb)
    return losses, grads.to_flat()


def _ffn_batch_step(params, xb, yb):
    x2d = xb[:, 0, :]
    hidden, probs = baseline_nets.ffn_forward_batch(params, x2d)
    losses = recurrent_nets.batch_losses(probs, yb)
    grads = baseline_nets.ffn_backward_batch(params, x2d, hidden, probs, yb)
    return losses, grads.to_flat()


def _model_adapter(model):
    if isinstance(model, recurrent_nets.LstmParams):
        def from_flat(flat):
            return recurrent_nets.LstmParams.from_flat(
                flat, model.input_dim, model.hidden_dim, model.num_classes,
                train_biases=model.train_biases)
        return model.to_flat, from_flat, _lstm_batch_step, _lstm_bias_mask(model)
    if isinstance(model, baseline_nets.FfnParams):
        def from_flat(flat):
            return baseline_nets.ffn_from_flat(
                flat, model.input_dim, model.hidden_dim, model.num_classes,
                activation=model.activation)
        return lambda: baseline_nets.ffn_to_flat(model), from_flat, _ffn_batch_step, None
    raise TypeError(f"cannot train model of type {type(model).__name__}")


def _lstm_bias_mask(model):
    """Zero-mask over flat gradients for frozen gate biases, or None."""
    if model.train_biases:
        return None
    mask = np.ones(model.to_flat().size)
    h, d = model.hidden_dim, model.input_dim
    block = h * d + h * h + h
    for g in range(4):
        start = g * block + h * d + h * h
        mask[start:start + h] = 0.0
    return mask


def train_arrays(model, xs: np.ndarray, labels: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Mini-batch ADAM training over prepared arrays xs (S, N, D), labels (S,).

    Raises ValueError naming the epoch whose mean loss is not finite.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if xs.ndim != 3 or xs.shape[0] != labels.shape[0] or xs.shape[0] == 0:
        raise ValueError(f"bad training arrays: inputs {xs.shape}, labels {labels.shape}")

    to_flat, from_flat, batch_step, grad_mask = _model_adapter(model)
    if isinstance(model, baseline_nets.FfnParams) and xs.shape[1] != 1:
        raise ShapeError("feedforward training expects single-date samples (N == 1)")

    rng = make_rng(cfg.shuffle_seed)
    count = xs.shape[0]
    flat = to_flat()
    state = AdamState.for_size(flat.size)
    params = from_flat(flat)
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(count)
        total_loss = 0.0
        for start in range(0, count, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses, grad_flat = batch_step(params, xs[batch], labels[batch])
            total_loss += float(losses.sum())
            grad_flat /= batch.size  # mean over the mini-batch
            if grad_mask is not None:
                grad_flat *= grad_mask
            flat = adam_update(state, flat, grad_flat, cfg)
            params = from_flat(flat)
        epoch_losses.append(total_loss / count)
        if not np.isfinite(epoch_losses[-1]):
            raise ValueError(f"epoch {epoch + 1}: mean training loss is {epoch_losses[-1]}")
        if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
            log.info("epoch %d mean_loss %.6f", epoch + 1, epoch_losses[-1])
    return TrainResult(params=params, epoch_losses=epoch_losses)


def loss_history_lines(epoch_losses) -> str:
    """Two-column text stream (epoch, mean_loss), one row per epoch."""
    return "\n".join(f"{i + 1} {loss:.12g}" for i, loss in enumerate(epoch_losses)) + "\n"
