"""Independent oracles shared by the unit and acceptance tests.

The finite-difference graders only use forward evaluation through the flat
parameter layout, so they stay independent of the analytic backward passes
they check. The patch and sample builders index the scenes pixel by pixel and
import nothing from `pbrnn.sampling`, so they stay independent of the window
gather they check. The per-sample classifiers write the LSTM and the fused
feedforward nets out from their equations, one sample at a time, and call no
kernel of the package, so they stay independent of the batched inference they
check. The nearest-profile classifiers label a synthetic site from its class
profiles alone, independent of every learned classifier.
"""

import numpy as np

from pbrnn import baseline_nets, recurrent_nets


def lstm_fd_gradient(params, vectors, label, eps=1e-5):
    """Central finite differences of the cross entropy wrt every parameter."""
    flat = params.to_flat()
    grad = np.empty_like(flat)
    dims = (params.input_dim, params.hidden_dim, params.num_classes)

    def loss_at(theta):
        p = recurrent_nets.LstmParams.from_flat(theta, *dims)
        return recurrent_nets.sequence_loss(p, vectors, label)

    for j in range(flat.size):
        bump = np.zeros_like(flat)
        bump[j] = eps
        grad[j] = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * eps)
    return grad


def ffn_fd_gradient(params, x, label, eps=1e-5):
    flat = baseline_nets.ffn_to_flat(params)
    grad = np.empty_like(flat)

    def loss_at(theta):
        p = baseline_nets.ffn_from_flat(
            theta, params.input_dim, params.hidden_dim, params.num_classes,
            activation=params.activation)
        _, probs = baseline_nets.ffn_forward_batch(p, x[None, :])
        return recurrent_nets.cross_entropy_loss(probs[0], label)

    for j in range(flat.size):
        bump = np.zeros_like(flat)
        bump[j] = eps
        grad[j] = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * eps)
    return grad


def max_relative_error(analytic, numeric):
    """max_j |a - n| / max(1, |a|, |n|): absolute below 1, relative above."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def pixel_vector(series, t, row, col):
    """The band_count reflectance values at (row, col) in scene t; an index
    outside the series is an IndexError, never a wrapped read."""
    if not 0 <= t < len(series):
        raise IndexError(f"scene index {t} out of range")
    if not (0 <= row < series.height and 0 <= col < series.width):
        raise IndexError(f"pixel ({row}, {col}) outside {series.height}x{series.width}")
    return series.scenes[t].toa[:, row, col].copy()


def brute_force_patch(series, t, row, col, patch_x, patch_y):
    """Nested-loop patch flattener: rows, then columns, then bands innermost."""
    stack = series.scenes[t]
    bands = stack.toa.shape[0]
    out = []
    for wr in range(row - patch_y // 2, row + patch_y // 2 + 1):
        for wc in range(col - patch_x // 2, col + patch_x // 2 + 1):
            for b in range(bands):
                out.append(stack.toa[b, wr, wc])
    return np.array(out)


def brute_force_sample(series, cfg, row, col):
    """Nested-loop sample at (row, col): (vectors (T, input_dim), valid (T,)).

    Per date, the brute-force patch under the sampler's masking rule. Whole
    rule: a window touching any contaminated pixel becomes the zero vector
    and is invalid. Partial rule: only the contaminated pixels' bands are
    zeroed, and the date is invalid when every pixel is contaminated.
    """
    dates = range(cfg.seq_len) if cfg.scene_indices is None else cfg.scene_indices
    vectors, valid = [], []
    for t in dates:
        patch = brute_force_patch(series, t, row, col, cfg.patch_x, cfg.patch_y)
        contaminated = series.scenes[t].contaminated
        flags = [bool(contaminated[wr, wc])
                 for wr in range(row - cfg.patch_y // 2, row + cfg.patch_y // 2 + 1)
                 for wc in range(col - cfg.patch_x // 2, col + cfg.patch_x // 2 + 1)]
        if cfg.zero_whole_patch:
            ok = not any(flags)
            if not ok:
                patch[:] = 0.0
        else:
            ok = not all(flags)
            for p, bad in enumerate(flags):
                if bad:
                    patch[p * cfg.bands:(p + 1) * cfg.bands] = 0.0
        vectors.append(patch)
        valid.append(ok)
    return np.array(vectors), np.array(valid)


def _sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))  # the logistic function, overflow-free


def _softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


def lstm_classify(params, vectors):
    """One sample's LSTM class (argmax, ties to the lowest id) and probability
    vector: the gate equations in GATE_NAMES order, date by date from a zero
    state, then the dense softmax layer on the last hidden state."""
    h = np.zeros(params.hidden_dim)
    c = np.zeros(params.hidden_dim)
    for x in np.asarray(vectors, dtype=np.float64):
        i, f, o, g = (params.wx[k] @ x + params.wh[k] @ h + params.b[k] for k in range(4))
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
    probs = _softmax(params.wy @ h + params.by)
    return int(np.argmax(probs)), probs


def fuse_classify(ensemble, per_date_inputs):
    """One sample's fused class (argmax, ties to the lowest id) and posterior:
    the renormalised product of each member's softmax(W2 act(W1 x + b1) + b2)
    on its own date's input."""
    fused = 1.0
    for member, x in zip(ensemble.members, per_date_inputs, strict=True):
        pre = member.w1 @ x + member.b1
        hidden = _sigmoid(pre) if member.activation == "sigmoid" else np.tanh(pre)
        fused = fused * _softmax(member.w2 @ hidden + member.b2)
    fused = fused / fused.sum()
    return int(np.argmax(fused)), fused


def nearest_profile_map(series, profiles):
    """Per-pixel argmin over classes of the full-sequence squared distance to
    the class profiles (K, T, Z); returns the (H, W) label array. Meant for
    clean (cloud-free) series, where zeroed datums cannot bias the distances."""
    dist = np.zeros((profiles.shape[0], series.height, series.width))
    for t, stack in enumerate(series.scenes):
        for k in range(profiles.shape[0]):
            diff = stack.toa - profiles[k, t][:, None, None]
            dist[k] += np.einsum("zhw,zhw->hw", diff, diff)
    return np.argmin(dist, axis=0)


def nearest_profile_single_date(series, profiles, t, candidates):
    """Argmin over the candidate classes of the date-t squared distance to
    their profiles; returns the (H, W) label array."""
    dist = np.empty((len(candidates), series.height, series.width))
    for i, k in enumerate(candidates):
        diff = series.scenes[t].toa - profiles[k, t][:, None, None]
        dist[i] = np.einsum("zhw,zhw->hw", diff, diff)
    return np.asarray(candidates)[np.argmin(dist, axis=0)]
