"""Multi-temporal patch-sequence samples, training-set extraction, and whole-
map classification.

A sample at a pixel is the temporal sequence of flattened X*Y*Z patch vectors
centered there (rows, then columns, then bands innermost). A timestep whose
window touches any contaminated pixel contributes the exact zero vector and a
False validity flag (the whole-window rule; a partial mode that zeroes only
the contaminated pixels is available via ``zero_whole_patch=False``).

Training candidates are the non-boundary labeled pixels whose reference-scene
window is fully clear; a seeded uniform 80% (floor) per class is selected and
the remainder forms the held-out pool for evaluation draws.

Sample extraction and map classification parallelize trivially over pixels;
everything here is deterministic given the sampler seed. `write_atomic` is the
temp-file + rename write that label maps, sample caches, checkpoints and the
command-line text outputs go through.
"""

from __future__ import annotations

import json
import logging
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import baseline_nets, recurrent_nets
from .core_math import make_rng
from .errors import BoundaryError, ConfigError, FormatError, LabeledSampleError, ShapeError
from .raster_data import SceneSeries

log = logging.getLogger(__name__)

NODATA_LABEL = 255

SAMPLE_CACHE_MAGIC = b"PBSC"
SAMPLE_CACHE_VERSION = 1
_NO_LABEL = 0xFFFF


@dataclass(frozen=True)
class SamplerConfig:
    patch_x: int = 3            # window width (columns)
    patch_y: int = 3            # window height (rows)
    bands: int = 8
    seq_len: int = 23
    reference_scene: int = 0    # the training-constraint date
    train_fraction: float = 0.80
    seed: int = 0
    scene_indices: tuple[int, ...] | None = None  # explicit scene subset; None = first seq_len
    zero_whole_patch: bool = True

    def __post_init__(self):
        if self.patch_x < 1 or self.patch_y < 1 or self.patch_x % 2 == 0 or self.patch_y % 2 == 0:
            raise ConfigError("patch_x/patch_y must be odd and positive (center pixel defined)")
        if self.seq_len < 1:
            raise ConfigError("seq_len must be >= 1")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if self.scene_indices is not None and len(self.scene_indices) != self.seq_len:
            raise ConfigError("scene_indices length must equal seq_len")

    @property
    def input_dim(self) -> int:
        return self.patch_x * self.patch_y * self.bands

    def scenes_for(self, series: SceneSeries) -> tuple[int, ...]:
        indices = self.scene_indices if self.scene_indices is not None \
            else tuple(range(self.seq_len))
        if any(not 0 <= t < len(series) for t in indices):
            raise ConfigError(f"scene indices {indices} exceed series length {len(series)}")
        return tuple(indices)


@dataclass
class SampleSequence:
    """One training/inference sample: seq_len flattened patch vectors.

    A False valid_mask entry means the window was contaminated at that date
    and the stored vector is exactly zero (under the whole-patch rule).
    """

    vectors: np.ndarray          # (seq_len, input_dim) float64
    label: int | None
    location: tuple[int, int]    # (row, col)
    valid_mask: np.ndarray       # (seq_len,) bool


@dataclass
class LabelMap:
    """Per-pixel class ids, 255 = no-data."""

    labels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2:
            raise ShapeError("label map must be 2-D")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass
class TrainingSet:
    train: list[SampleSequence]
    holdout: list[SampleSequence]
    class_counts: dict[int, tuple[int, int]] = field(default_factory=dict)  # id -> (candidates, selected)


def _check_series(series: SceneSeries, cfg: SamplerConfig) -> None:
    if series.band_count != cfg.bands:
        raise ShapeError(f"series has {series.band_count} bands, sampler expects {cfg.bands}")
    if cfg.scene_indices is None and cfg.seq_len > len(series):
        raise ConfigError(f"seq_len {cfg.seq_len} exceeds series length {len(series)}")


def _window_bounds(cfg: SamplerConfig, height: int, width: int):
    ry, rx = cfg.patch_y // 2, cfg.patch_x // 2
    return ry, rx, height - ry, width - rx  # valid center rows [ry, h-ry), cols [rx, w-rx)


def extract_patch(series: SceneSeries, cfg: SamplerConfig, t: int, row: int, col: int) -> np.ndarray:
    """Flattened window at scene t: rows top-to-bottom, columns left-to-right,
    bands innermost."""
    _check_series(series, cfg)
    if not 0 <= t < len(series):
        raise IndexError(f"scene index {t} out of range")
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    if not (ry <= row < row_end and rx <= col < col_end):
        raise BoundaryError(
            f"window at ({row}, {col}) exits the {series.height}x{series.width} raster")
    block = series.scenes[t].toa[:, row - ry:row + ry + 1, col - rx:col + rx + 1]
    return np.ascontiguousarray(block.transpose(1, 2, 0)).reshape(cfg.input_dim).copy()


def _window_contaminated(stack, cfg: SamplerConfig, row_lo: int, row_hi: int) -> np.ndarray:
    """(row_hi-row_lo, W') bool: does the window centered at each interior
    pixel with center row in [row_lo, row_hi) touch a contaminated pixel."""
    ry = cfg.patch_y // 2
    windows = sliding_window_view(stack.contaminated[row_lo - ry:row_hi + ry],
                                  (cfg.patch_y, cfg.patch_x))
    return windows.any(axis=(2, 3))


def _patch_plane(stack, cfg: SamplerConfig, row_lo: int, row_hi: int) -> np.ndarray:
    """All flattened windows with center rows in [row_lo, row_hi); shape
    (row_hi-row_lo, W', input_dim). Matches extract_patch exactly."""
    ry = cfg.patch_y // 2
    windows = sliding_window_view(stack.toa, (cfg.patch_y, cfg.patch_x), axis=(1, 2))
    block = windows[:, row_lo - ry:row_hi - ry]  # (Z, rows, W', Y, X)
    return np.ascontiguousarray(block.transpose(1, 2, 3, 4, 0)).reshape(
        row_hi - row_lo, -1, cfg.input_dim)


def build_sample(series: SceneSeries, cfg: SamplerConfig, row: int, col: int,
                 label_map: LabelMap | None = None) -> SampleSequence:
    """Assemble the patch-vector sequence at (row, col), in temporal order.

    With a label map, a no-data label raises; without one the sample is an
    unlabeled inference sample.
    """
    _check_series(series, cfg)
    indices = cfg.scenes_for(series)
    ry, rx = cfg.patch_y // 2, cfg.patch_x // 2
    vectors = np.zeros((len(indices), cfg.input_dim))
    valid = np.ones(len(indices), dtype=bool)
    for i, t in enumerate(indices):
        stack = series.scenes[t]
        window = stack.contaminated[row - ry:row + ry + 1, col - rx:col + rx + 1] \
            if (ry <= row < series.height - ry and rx <= col < series.width - rx) else None
        if window is None:
            raise BoundaryError(f"window at ({row}, {col}) exits the raster")
        if cfg.zero_whole_patch:
            if window.any():
                valid[i] = False  # vector stays the exact zero vector
            else:
                vectors[i] = extract_patch(series, cfg, t, row, col)
        else:
            vec = extract_patch(series, cfg, t, row, col)
            if window.all():
                valid[i] = False
                vec[:] = 0.0
            elif window.any():
                flat_bad = np.repeat(window.reshape(-1), cfg.bands)
                vec[flat_bad] = 0.0
            vectors[i] = vec
    label: int | None = None
    if label_map is not None:
        if label_map.labels.shape != (series.height, series.width):
            raise ShapeError("label map dimensions do not match the series")
        value = int(label_map.labels[row, col])
        if value == NODATA_LABEL:
            raise LabeledSampleError(f"no reference label at ({row}, {col})")
        label = value
    return SampleSequence(vectors=vectors, label=label, location=(row, col), valid_mask=valid)


def candidate_mask(series: SceneSeries, cfg: SamplerConfig, label_map: LabelMap) -> np.ndarray:
    """(H', W') bool over interior centers: labeled and clear at the reference date."""
    _check_series(series, cfg)
    if label_map.labels.shape != (series.height, series.width):
        raise ShapeError("label map dimensions do not match the series")
    if not 0 <= cfg.reference_scene < len(series):
        raise ConfigError(f"reference scene {cfg.reference_scene} outside the series")
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    inner_labels = label_map.labels[ry:row_end, rx:col_end]
    ref_bad = _window_contaminated(series.scenes[cfg.reference_scene], cfg, ry, row_end)
    return (inner_labels != NODATA_LABEL) & ~ref_bad


def assemble_windows(series: SceneSeries, cfg: SamplerConfig, rows: np.ndarray,
                     cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (n, T, input_dim) and validity flags (n, T) for the interior
    centers (rows, cols), under the sampler's masking rule. Equal to stacking
    build_sample over the centers; windows are cut only over their row span."""
    indices = cfg.scenes_for(series)
    ry, rx = cfg.patch_y // 2, cfg.patch_x // 2
    xs = np.empty((rows.size, len(indices), cfg.input_dim))
    valid = np.empty((rows.size, len(indices)), dtype=bool)
    if rows.size == 0:
        return xs, valid
    row_lo, row_hi = int(rows.min()), int(rows.max()) + 1
    at = (rows - row_lo) * (series.width - 2 * rx) + (cols - rx)  # flat index in the span
    for i, t in enumerate(indices):
        stack = series.scenes[t]
        vecs = _patch_plane(stack, cfg, row_lo, row_hi).reshape(-1, cfg.input_dim)[at]
        if cfg.zero_whole_patch:
            bad = _window_contaminated(stack, cfg, row_lo, row_hi).reshape(-1)[at]
            vecs[bad] = 0.0
            valid[:, i] = ~bad
        else:  # zero only the contaminated pixels; invalid when all of them are
            windows = sliding_window_view(stack.contaminated[row_lo - ry:row_hi + ry],
                                          (cfg.patch_y, cfg.patch_x))
            bad = windows.reshape(-1, cfg.patch_y * cfg.patch_x)[at]
            vecs[bad.repeat(cfg.bands, axis=1)] = 0.0
            valid[:, i] = ~bad.all(axis=1)
        xs[:, i, :] = vecs
    return xs, valid


def extract_training_set(series: SceneSeries, cfg: SamplerConfig,
                         label_map: LabelMap) -> TrainingSet:
    """Select floor(train_fraction * candidates) per class, seeded and uniform;
    the remaining candidates form the held-out pool."""
    cand = candidate_mask(series, cfg, label_map)
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    inner_labels = label_map.labels[ry:row_end, rx:col_end]
    rng = make_rng(cfg.seed)
    sel_rows, sel_cols, sel_labels = [], [], []
    hold_rows, hold_cols, hold_labels = [], [], []
    class_counts: dict[int, tuple[int, int]] = {}
    for cls in sorted(int(c) for c in np.unique(label_map.labels) if c != NODATA_LABEL):
        rows, cols = np.nonzero(cand & (inner_labels == cls))
        count = rows.size
        n_sel = int(np.floor(cfg.train_fraction * count))
        class_counts[cls] = (count, n_sel)
        if count == 0:
            log.warning("class %d has no eligible training candidates", cls)
            continue
        perm = rng.permutation(count)
        chosen, rest = perm[:n_sel], perm[n_sel:]
        sel_rows.append(rows[chosen] + ry)
        sel_cols.append(cols[chosen] + rx)
        sel_labels.append(np.full(chosen.size, cls))
        hold_rows.append(rows[rest] + ry)
        hold_cols.append(cols[rest] + rx)
        hold_labels.append(np.full(rest.size, cls))

    def collect(row_parts, col_parts, label_parts):
        if not row_parts:
            return []
        rows, cols = np.concatenate(row_parts), np.concatenate(col_parts)
        labels = np.concatenate(label_parts)
        xs, valid = assemble_windows(series, cfg, rows, cols)
        return [SampleSequence(vectors=xs[j], label=int(labels[j]),
                               location=(int(rows[j]), int(cols[j])), valid_mask=valid[j])
                for j in range(rows.size)]

    return TrainingSet(train=collect(sel_rows, sel_cols, sel_labels),
                       holdout=collect(hold_rows, hold_cols, hold_labels),
                       class_counts=class_counts)


def _model_probabilities(model, xs: np.ndarray) -> np.ndarray:
    """(B, N, D) sample tensor -> (B, K) class probabilities, per model kind."""
    if isinstance(model, recurrent_nets.LstmParams):
        return recurrent_nets.forward_batch(model, xs).probs
    if isinstance(model, baseline_nets.FfnParams):
        if xs.shape[1] != 1:
            raise ShapeError("single-date model fed a multi-date sample")
        return baseline_nets.ffn_forward_batch(model, xs[:, 0, :])[1]
    if isinstance(model, baseline_nets.FusionEnsemble):
        if xs.shape[1] != len(model.members):
            raise ShapeError("fusion model date count does not match the samples")
        return baseline_nets.fuse_classify_batch(model, xs)
    raise TypeError(f"cannot classify with model of type {type(model).__name__}")


def predict_labels(model, xs: np.ndarray, batch_size: int = 1024) -> np.ndarray:
    """Predicted class ids for stacked samples xs (B, N, D), batch_size rows at
    a time (argmax, lowest-id ties)."""
    out = np.empty(xs.shape[0], dtype=np.int64)
    for start in range(0, xs.shape[0], batch_size):
        probs = _model_probabilities(model, xs[start:start + batch_size])
        out[start:start + batch_size] = np.argmax(probs, axis=1)
    return out


def classify_map(series: SceneSeries, cfg: SamplerConfig, model,
                 row_block: int = 32, batch_size: int = 4096) -> LabelMap:
    """Classify every non-boundary pixel; boundary pixels become no-data."""
    _check_series(series, cfg)
    if model.input_dim != cfg.input_dim:
        raise ShapeError(f"model input_dim {model.input_dim} vs sampler {cfg.input_dim}")
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    out = np.full((series.height, series.width), NODATA_LABEL, dtype=np.uint8)
    cols = np.arange(rx, col_end)
    for block_lo in range(ry, row_end, row_block):
        block_hi = min(block_lo + row_block, row_end)
        rows = np.arange(block_lo, block_hi)
        xs, _ = assemble_windows(series, cfg, rows.repeat(cols.size),
                                 np.tile(cols, rows.size))
        out[block_lo:block_hi, rx:col_end] = predict_labels(
            model, xs, batch_size).reshape(rows.size, cols.size)
    return LabelMap(labels=out)


def map_accuracy(classified: LabelMap, reference: LabelMap) -> float:
    """Agreement over pixels valid in both maps."""
    valid = (classified.labels != NODATA_LABEL) & (reference.labels != NODATA_LABEL)
    if not valid.any():
        raise ValueError("no jointly valid pixels")
    return float(np.mean(classified.labels[valid] == reference.labels[valid]))


def write_atomic(path, data: bytes) -> None:
    """Write data to a sibling temp file, then rename it over path; on failure
    the temp file is removed and any previous file at path is left untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_label_map(path, label_map: LabelMap, class_names) -> None:
    write_atomic(path, np.ascontiguousarray(label_map.labels, dtype=np.uint8).tobytes())
    sidecar = {
        "width": label_map.width,
        "height": label_map.height,
        "nodata": NODATA_LABEL,
        "classes": list(class_names),
    }
    write_atomic(str(path) + ".json",
                 (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_label_map(path) -> tuple[LabelMap, list[str]]:
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not path.is_file() or not sidecar_path.is_file():
        raise FormatError(f"missing label map or sidecar at {path}")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        width, height = int(sidecar["width"]), int(sidecar["height"])
        classes = list(sidecar["classes"])
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad label map sidecar: {exc}") from exc
    blob = path.read_bytes()
    if len(blob) != width * height:
        raise FormatError(f"{path}: {len(blob)} bytes, expected {width * height}")
    labels = np.frombuffer(blob, dtype=np.uint8).reshape(height, width).copy()
    return LabelMap(labels=labels), classes


def save_sample_cache(path, samples, cfg: SamplerConfig) -> None:
    """Binary cache: header (magic, version, N, input_dim, count) then records."""
    n, dim = cfg.seq_len, cfg.input_dim
    parts = [SAMPLE_CACHE_MAGIC,
             struct.pack("<IIIQ", SAMPLE_CACHE_VERSION, n, dim, len(samples))]
    for s in samples:
        if s.vectors.shape != (n, dim):
            raise ShapeError(f"sample shape {s.vectors.shape} does not match cache header")
        label = _NO_LABEL if s.label is None else int(s.label)
        parts.append(struct.pack("<HII", label, s.location[0], s.location[1]))
        parts.append(s.valid_mask.astype(np.uint8).tobytes())
        parts.append(np.ascontiguousarray(s.vectors, dtype="<f8").tobytes())
    write_atomic(path, b"".join(parts))


def load_sample_cache(path) -> tuple[list[SampleSequence], int, int]:
    """Returns (samples, seq_len, input_dim)."""
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise FormatError(f"{path}: {len(blob)} bytes, shorter than the sample cache header")
    if blob[:4] != SAMPLE_CACHE_MAGIC:
        raise FormatError(f"{path}: bad sample cache magic")
    version, n, dim, count = struct.unpack("<IIIQ", blob[4:24])
    if version != SAMPLE_CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    record = 10 + n + n * dim * 8
    if len(blob) != 24 + count * record:
        raise FormatError(f"{path}: truncated sample cache")
    samples = []
    pos = 24
    for _ in range(count):
        label, row, col = struct.unpack("<HII", blob[pos:pos + 10])
        pos += 10
        valid = np.frombuffer(blob[pos:pos + n], dtype=np.uint8).astype(bool)
        pos += n
        vectors = np.frombuffer(blob[pos:pos + n * dim * 8], dtype="<f8").reshape(n, dim)
        pos += n * dim * 8
        samples.append(SampleSequence(
            vectors=vectors.copy(),
            label=None if label == _NO_LABEL else int(label),
            location=(row, col), valid_mask=valid))
    return samples, n, dim
