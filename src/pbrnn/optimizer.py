"""ADAM optimizer and the mini-batch training loop for the sequence and
feedforward classifiers.

Training is fully deterministic given the shuffle seed: one full-dataset
permutation is drawn per epoch, per-sample gradients are averaged within each
mini-batch, and the ADAM update is applied to the flat parameter array
between batches. Per-sample gradient work may be parallelized by callers;
the update itself is a single-writer step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import baseline_nets, recurrent_nets
from .core_math import make_rng
from .errors import ShapeError

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 1e-4  # the published training rate


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
    """One ADAM step with cfg's step size, decays and epsilon; mutates the
    moment state, returns the updated parameters."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"adam_update: params {params.shape}, grads {grads.shape}, moments {state.m.shape}")
    state.step += 1
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads * grads
    m_hat = state.m / (1.0 - cfg.beta1 ** state.step)
    v_hat = state.v / (1.0 - cfg.beta2 ** state.step)
    return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 30
    shuffle_seed: int = 0
    holdout_fraction: float = 0.0
    log_every: int = 10
    learning_rate: float = DEFAULT_LEARNING_RATE  # ADAM step size and moment decays
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class TrainResult:
    params: object                      # trained LstmParams or FfnParams
    epoch_losses: list[float]           # mean per-sample loss per epoch
    holdout_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


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
    if cfg.epochs < 1:
        raise ValueError("epochs must be >= 1")
    if cfg.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= cfg.holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in [0, 1)")
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if xs.ndim != 3 or xs.shape[0] != labels.shape[0] or xs.shape[0] == 0:
        raise ValueError(f"bad training arrays: inputs {xs.shape}, labels {labels.shape}")

    to_flat, from_flat, batch_step, grad_mask = _model_adapter(model)
    if isinstance(model, baseline_nets.FfnParams) and xs.shape[1] != 1:
        raise ShapeError("feedforward training expects single-date samples (N == 1)")

    rng = make_rng(cfg.shuffle_seed)
    count = xs.shape[0]
    holdout_idx = np.empty(0, dtype=np.int64)
    train_idx = np.arange(count)
    if cfg.holdout_fraction > 0.0:
        perm = rng.permutation(count)
        n_hold = int(cfg.holdout_fraction * count)
        holdout_idx = np.sort(perm[:n_hold])
        train_idx = np.sort(perm[n_hold:])
        if train_idx.size == 0:
            raise ValueError("holdout_fraction leaves no training samples")

    flat = to_flat()
    state = AdamState.for_size(flat.size)
    params = from_flat(flat)
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        total_loss = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses, grad_flat = batch_step(params, xs[batch], labels[batch])
            total_loss += float(losses.sum())
            grad_flat /= batch.size  # mean over the mini-batch
            if grad_mask is not None:
                grad_flat *= grad_mask
            flat = adam_update(state, flat, grad_flat, cfg)
            params = from_flat(flat)
        epoch_losses.append(total_loss / order.size)
        if not np.isfinite(epoch_losses[-1]):
            raise ValueError(f"epoch {epoch + 1}: mean training loss is {epoch_losses[-1]}")
        if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
            log.info("epoch %d mean_loss %.6f", epoch + 1, epoch_losses[-1])
    return TrainResult(params=params, epoch_losses=epoch_losses, holdout_indices=holdout_idx)


def loss_history_lines(epoch_losses) -> str:
    """Two-column text stream (epoch, mean_loss), one row per epoch."""
    return "\n".join(f"{i + 1} {loss:.12g}" for i, loss in enumerate(epoch_losses)) + "\n"
