"""The gated (LSTM) recurrent cell, the sequence-to-one classifier, and exact
backpropagation through time.

The classifier consumes one flattened patch vector per acquisition date,
starts from a zero hidden/cell state, and feeds the final hidden state
through a dense softmax layer. Zeroed (cloud/shadow) datum vectors pass
through the same recurrence: their input contribution is exactly zero while
the recurrent terms still propagate state.

All step and sequence kernels operate on a leading batch axis; the
per-sample operations wrap the same kernels with a batch of one, so single
and batched evaluation are bit-identical. Training runs `forward_batch`,
which records the per-step trace that `backward_batch` reads: the inputs,
gate activations, cell states, their tanh and hidden states, plus the output
probabilities; the gate preactivations are not kept. Inference
runs `forward_probs`, which loops the same step kernel but keeps only the
current (h, c), so its probabilities equal `forward_batch(...).probs` bit
for bit at a fraction of the memory. The forward and backward passes only
read the parameters, so `sampling.classify_map`'s forked workers share the
one set they inherit. In `optimizer.train_arrays`, `forward_batch(..., out=)`
records into the previous batch's trace when the shapes match, and
`backward_batch(..., out=)` writes into views of the fit's flat gradient
buffer (`LstmGradients` field order, not the checkpoint order below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import flat_views, sigmoid, softmax
from .errors import ShapeError

# Gate block order inside the stacked (4, hidden, ...) parameter arrays and
# the (batch, 4*hidden) preactivation/activation arrays.
GATE_NAMES = ("input", "forget", "output", "cell")

# Flat-array field order for checkpoints:
# Wx1,Wh1,b1, Wx2,Wh2,b2, Wx3,Wh3,b3, Wx4,Wh4,b4, Wy,by (row-major each).


@dataclass
class LstmParams:
    """LSTM weights plus the dense softmax output layer.

    wx/wh/b stack the four gate blocks in GATE_NAMES order; biases are held
    even when `train_biases` is False (they stay exactly zero then, which
    reproduces the bias-free gate equations).
    """

    wx: np.ndarray  # (4, hidden_dim, input_dim)
    wh: np.ndarray  # (4, hidden_dim, hidden_dim)
    b: np.ndarray   # (4, hidden_dim)
    wy: np.ndarray  # (num_classes, hidden_dim)
    by: np.ndarray  # (num_classes,)
    train_biases: bool = True

    @property
    def input_dim(self) -> int:
        return self.wx.shape[2]

    @property
    def hidden_dim(self) -> int:
        return self.wx.shape[1]

    @property
    def num_classes(self) -> int:
        return self.by.shape[0]

    def to_flat(self) -> np.ndarray:
        """Parameters as one 1-D array in the checkpoint order above."""
        gates = np.concatenate([self.wx.reshape(4, -1), self.wh.reshape(4, -1), self.b], axis=1)
        return np.concatenate([gates.ravel(), self.wy.ravel(), self.by])

    @classmethod
    def from_flat(cls, flat: np.ndarray, input_dim: int, hidden_dim: int,
                  num_classes: int, train_biases: bool = True) -> "LstmParams":
        """Parameters from a flat vector in checkpoint order: the gate arrays
        are copies, wy and by views of flat."""
        h, d, k = hidden_dim, input_dim, num_classes
        gates, wy, by = flat_views(np.asarray(flat, dtype=np.float64),
                                   [(4, h * d + h * h + h), (k, h), (k,)])
        return cls(wx=gates[:, :h * d].reshape(4, h, d).copy(),
                   wh=gates[:, h * d:h * d + h * h].reshape(4, h, h).copy(),
                   b=gates[:, h * d + h * h:].copy(), wy=wy, by=by, train_biases=train_biases)


@dataclass
class LstmGradients:
    """Loss gradients mirroring the LstmParams layout exactly."""

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    wy: np.ndarray
    by: np.ndarray

    to_flat = LstmParams.to_flat


@dataclass
class ForwardTrace:
    """Per-timestep records of a (batched) forward pass plus the output layer:
    exactly what `backward_batch` reads, plus the logits.

    inputs (N, B, D); gates (N, B, 4H), the activated gates in GATE_NAMES
    order; cell, tanh_cell and hidden (N, B, H); logits and probs (B, K).
    """

    inputs: np.ndarray
    gates: np.ndarray
    cell: np.ndarray
    tanh_cell: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[1]


def init_lstm_params(input_dim: int, hidden_dim: int, num_classes: int,
                     rng: np.random.Generator, train_biases: bool = True) -> LstmParams:
    """Uniform init in [-s, s] with s = 1/sqrt(fan_in) per matrix; zero biases."""
    sx = 1.0 / np.sqrt(input_dim)
    sh = 1.0 / np.sqrt(hidden_dim)
    wx = rng.uniform(-sx, sx, size=(4, hidden_dim, input_dim))
    wh = rng.uniform(-sh, sh, size=(4, hidden_dim, hidden_dim))
    wy = rng.uniform(-sh, sh, size=(num_classes, hidden_dim))
    b = np.zeros((4, hidden_dim))
    by = np.zeros(num_classes)
    return LstmParams(wx=wx, wh=wh, b=b, wy=wy, by=by, train_biases=train_biases)


def _step_kernel(params: LstmParams, x: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray):
    """One LSTM step over a batch: x (B, D), h_prev/c_prev (B, H)."""
    hd = params.hidden_dim
    wx_flat = params.wx.reshape(4 * hd, params.input_dim)
    wh_flat = params.wh.reshape(4 * hd, hd)
    pre = x @ wx_flat.T + h_prev @ wh_flat.T + params.b.reshape(4 * hd)
    gates = np.empty_like(pre)
    gates[:, :3 * hd] = sigmoid(pre[:, :3 * hd])      # input, forget, output
    gates[:, 3 * hd:] = np.tanh(pre[:, 3 * hd:])      # cell candidate
    gi = gates[:, 0 * hd:1 * hd]
    gf = gates[:, 1 * hd:2 * hd]
    go = gates[:, 2 * hd:3 * hd]
    gg = gates[:, 3 * hd:4 * hd]
    c = gf * c_prev + gi * gg
    tanh_c = np.tanh(c)
    h = go * tanh_c
    return pre, gates, c, tanh_c, h


def _sample_vectors(sample) -> np.ndarray:
    """Accept a SampleSequence-like object (``.vectors``) or a (N, D) array."""
    vectors = getattr(sample, "vectors", sample)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ShapeError(f"sample vectors must be (seq_len, input_dim), got {vectors.shape}")
    return vectors


def _check_inputs(params: LstmParams, xs, caller: str) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[2] != params.input_dim:
        raise ShapeError(f"{caller}: inputs {xs.shape}, expected (B, N, {params.input_dim})")
    return xs


def forward_batch(params: LstmParams, xs: np.ndarray,
                  out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the full sequence from zero state for a batch xs of shape (B, N, D),
    recording into out when its arrays have this batch's shapes."""
    xs = _check_inputs(params, xs, "forward_batch")
    bsz, n, d = xs.shape
    hd, k = params.hidden_dim, params.num_classes
    shapes = dict(inputs=(n, bsz, d), gates=(n, bsz, 4 * hd), cell=(n, bsz, hd),
                  tanh_cell=(n, bsz, hd), hidden=(n, bsz, hd), logits=(bsz, k), probs=(bsz, k))
    trace = out
    if trace is None or {name: a.shape for name, a in vars(trace).items()} != shapes:
        trace = ForwardTrace(**{name: np.empty(shape) for name, shape in shapes.items()})
    trace.inputs[:] = xs.transpose(1, 0, 2)
    h = np.zeros((bsz, hd))
    c = np.zeros((bsz, hd))
    for t in range(n):
        _, gates, c, tanh_c, h = _step_kernel(params, trace.inputs[t], h, c)
        trace.gates[t] = gates
        trace.cell[t] = c
        trace.tanh_cell[t] = tanh_c
        trace.hidden[t] = h
    trace.logits[:] = h @ params.wy.T + params.by
    trace.probs[:] = softmax(trace.logits, axis=1)
    return trace


def forward_probs(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """(B, K) class probabilities of a batch xs (B, N, D), from zero state.

    The inference path: the same step kernel and output layer as
    `forward_batch`, bit-identical probabilities, but no per-step trace.
    """
    xs = _check_inputs(params, xs, "forward_probs")
    h = np.zeros((xs.shape[0], params.hidden_dim))
    c = np.zeros_like(h)
    for t in range(xs.shape[1]):
        _, _, c, _, h = _step_kernel(params, xs[:, t], h, c)
    return softmax(h @ params.wy.T + params.by, axis=1)


def forward_sequence(params: LstmParams, sample) -> ForwardTrace:
    """Per-sample forward pass (batch of one through the batched kernel)."""
    return forward_batch(params, _sample_vectors(sample)[None, :, :])


def cross_entropy_loss(probabilities: np.ndarray, label: int) -> float:
    """-ln p[label], with p clamped at 1e-300."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 1:
        raise ShapeError("cross_entropy_loss expects a probability vector")
    if abs(probabilities.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities do not sum to 1")
    if not 0 <= label < probabilities.shape[0]:
        raise ValueError(f"label {label} out of range for {probabilities.shape[0]} classes")
    return float(-np.log(max(probabilities[label], 1e-300)))


def batch_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row cross entropy for (B, K) probabilities and (B,) labels."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(picked, 1e-300))


def backward_batch(params: LstmParams, trace: ForwardTrace, labels: np.ndarray,
                   out: LstmGradients | None = None) -> LstmGradients:
    """Exact BPTT; returns gradients of the summed cross entropy over the batch,
    written into out's C-contiguous arrays when it is given."""
    labels = np.asarray(labels)
    n, bsz, hd = trace.cell.shape
    if labels.shape != (bsz,):
        raise ShapeError(f"labels {labels.shape}, expected ({bsz},)")
    wx_flat = params.wx.reshape(4 * hd, params.input_dim)
    wh_flat = params.wh.reshape(4 * hd, hd)

    dlogits = trace.probs.copy()
    dlogits[np.arange(bsz), labels] -= 1.0
    dh = dlogits @ params.wy
    dc = np.zeros((bsz, hd))

    if out is None:
        out = LstmGradients(*(np.empty_like(a) for a in (params.wx, params.wh, params.b,
                                                          params.wy, params.by)))
    dwx = out.wx.reshape(wx_flat.shape)  # views: the sums below accumulate into out
    dwh = out.wh.reshape(wh_flat.shape)
    db = out.b.reshape(4 * hd)
    for total in (dwx, dwh, db):
        total.fill(0.0)
    for t in range(n - 1, -1, -1):
        gates = trace.gates[t]
        gi = gates[:, 0 * hd:1 * hd]
        gf = gates[:, 1 * hd:2 * hd]
        go = gates[:, 2 * hd:3 * hd]
        gg = gates[:, 3 * hd:4 * hd]
        tanh_c = trace.tanh_cell[t]
        c_prev = trace.cell[t - 1] if t > 0 else np.zeros((bsz, hd))
        h_prev = trace.hidden[t - 1] if t > 0 else np.zeros((bsz, hd))

        do = dh * tanh_c
        dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
        dpre = np.empty((bsz, 4 * hd))
        dpre[:, 0 * hd:1 * hd] = (dc * gg) * gi * (1.0 - gi)
        dpre[:, 1 * hd:2 * hd] = (dc * c_prev) * gf * (1.0 - gf)
        dpre[:, 2 * hd:3 * hd] = do * go * (1.0 - go)
        dpre[:, 3 * hd:4 * hd] = (dc * gi) * (1.0 - gg * gg)

        dwx += dpre.T @ trace.inputs[t]
        dwh += dpre.T @ h_prev
        db += dpre.sum(axis=0)
        dh = dpre @ wh_flat
        dc = dc * gf

    np.matmul(dlogits.T, trace.hidden[n - 1], out=out.wy)
    dlogits.sum(axis=0, out=out.by)
    return out


def backward_sequence(params: LstmParams, trace: ForwardTrace, label: int) -> LstmGradients:
    """Gradients of one sample's cross entropy with respect to every parameter."""
    if trace.batch_size != 1:
        raise ShapeError("backward_sequence expects a single-sample trace")
    return backward_batch(params, trace, np.array([label]))


def sequence_loss(params: LstmParams, sample, label: int) -> float:
    """Convenience: forward pass + cross entropy (used by gradient checks)."""
    trace = forward_sequence(params, sample)
    return cross_entropy_loss(trace.probs[0], label)
