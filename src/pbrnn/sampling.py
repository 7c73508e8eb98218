"""Multi-temporal patch-sequence samples, training-set extraction, and whole-
map classification.

A sample at a pixel is the temporal sequence of flattened X*Y*Z patch vectors
centered there (rows, then columns, then bands innermost). A timestep whose
window touches any contaminated pixel contributes the exact zero vector and a
False validity flag (the whole-window rule; a partial mode that zeroes only
the contaminated pixels is available via ``zero_whole_patch=False``).

Training candidates are the non-boundary labeled pixels whose reference-scene
window is fully clear; `training_centres` selects a seeded uniform 80% (floor)
per class and leaves the remainder as the held-out pool for evaluation draws.
It returns centres, not windows: `assemble_windows` is the one place windows
are cut and masked, and it cuts exactly the windows at the centres it is
given, in any order: for the training path after the per-class cap, for
`classify_map` one batch of interior centres at a time, and for
`build_sample` one centre. `_window_pixels` is the one boundary check, which
`extract_patch` (one unmasked window) shares. `extract_training_set` is the
same selection as `SampleSequence` objects. All of it is deterministic given
the sampler seed. Label maps and sample caches are written through
`raster_data.write_atomic`.

`classify_map` cuts and classifies fixed-size chunks of centres in
`core_math.map_in_workers`, the forked pool the fits use: the workers inherit
the loaded series and the model's parameters, and return each chunk's labels
for the calling process to write into the map. A chunk's size does not depend
on the CPU count, so neither does the map.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baseline_nets, recurrent_nets
from .core_math import make_rng, map_in_workers
from .errors import BoundaryError, ConfigError, FormatError, LabeledSampleError, ShapeError
from .raster_data import SceneSeries, write_atomic

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
    return _patch_plane(series.scenes[t], cfg,
                        _window_pixels(series, cfg, np.array([row]), np.array([col])))[0]


def _window_pixels(series: SceneSeries, cfg: SamplerConfig, rows: np.ndarray, cols: np.ndarray):
    """Row and column indices of the pixels of the windows centered at
    (rows, cols); they broadcast to (*centers' shape, Y, X). Raises
    BoundaryError when a window exits the raster."""
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    if not np.all((rows >= ry) & (rows < row_end) & (cols >= rx) & (cols < col_end)):
        raise BoundaryError(f"a window exits the {series.height}x{series.width} raster")
    dy, dx = np.mgrid[-ry:ry + 1, -rx:rx + 1]
    return rows[..., None, None] + dy, cols[..., None, None] + dx


def _window_contaminated(stack, pixels) -> np.ndarray:
    """One bool per window of _window_pixels: does it touch a contaminated
    pixel."""
    return stack.contaminated[pixels].any(axis=(-2, -1))


def _patch_plane(stack, cfg: SamplerConfig, pixels) -> np.ndarray:
    """The flattened windows (n, input_dim) of _window_pixels, and no others.

    Reflectance is computed only for the slab of rows from the lowest to the
    highest row the windows read: a few rows for a classify_map chunk, at
    most the whole scene for a training cut."""
    rows, cols = pixels
    if rows.size == 0:
        return np.empty((0, cfg.input_dim))
    top = int(rows.min())
    slab = stack.reflectance(slice(top, int(rows.max()) + 1))
    block = slab[:, rows - top, cols]  # (Z, n, Y, X)
    return np.ascontiguousarray(np.moveaxis(block, 0, -1)).reshape(-1, cfg.input_dim)


def build_sample(series: SceneSeries, cfg: SamplerConfig, row: int, col: int,
                 label_map: LabelMap | None = None) -> SampleSequence:
    """The patch-vector sequence at (row, col), in temporal order: the one
    window assemble_windows cuts there.

    With a label map, a no-data label raises; without one the sample is an
    unlabeled inference sample.
    """
    xs, valid = assemble_windows(series, cfg, np.array([row]), np.array([col]))
    label: int | None = None
    if label_map is not None:
        if label_map.labels.shape != (series.height, series.width):
            raise ShapeError("label map dimensions do not match the series")
        value = int(label_map.labels[row, col])
        if value == NODATA_LABEL:
            raise LabeledSampleError(f"no reference label at ({row}, {col})")
        label = value
    return SampleSequence(vectors=xs[0], label=label, location=(row, col), valid_mask=valid[0])


def assemble_windows(series: SceneSeries, cfg: SamplerConfig, rows: np.ndarray,
                     cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (n, T, input_dim) and validity flags (n, T) for the interior
    centers (rows, cols), under the sampler's masking rule; only their
    windows are cut."""
    _check_series(series, cfg)
    indices = cfg.scenes_for(series)
    pixels = _window_pixels(series, cfg, rows, cols)
    xs = np.empty((rows.size, len(indices), cfg.input_dim))
    valid = np.empty((rows.size, len(indices)), dtype=bool)
    for i, t in enumerate(indices):
        stack = series.scenes[t]
        xs[:, i] = _patch_plane(stack, cfg, pixels)
        if cfg.zero_whole_patch:
            bad = _window_contaminated(stack, pixels)
            xs[bad, i] = 0.0
            valid[:, i] = ~bad
        else:  # zero only the contaminated pixels; invalid when all of them are
            bad = stack.contaminated[pixels].reshape(rows.size, cfg.patch_y * cfg.patch_x)
            xs[:, i][bad.repeat(cfg.bands, axis=1)] = 0.0
            valid[:, i] = ~bad.all(axis=1)
    return xs, valid


def training_centres(series: SceneSeries, cfg: SamplerConfig, label_map: LabelMap):
    """Select floor(train_fraction * candidates) per class, seeded and uniform;
    the remaining candidates form the held-out pool. Returns the train and
    holdout centres as (rows, cols, labels) int64 arrays, class by class in
    ascending id, and class_counts {id: (candidates, selected)}. Candidates
    are the labeled interior centres whose reference-date window is clear."""
    _check_series(series, cfg)
    if label_map.labels.shape != (series.height, series.width):
        raise ShapeError("label map dimensions do not match the series")
    if not 0 <= cfg.reference_scene < len(series):
        raise ConfigError(f"reference scene {cfg.reference_scene} outside the series")
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    inner_labels = label_map.labels[ry:row_end, rx:col_end]
    pixels = _window_pixels(series, cfg, *np.ogrid[ry:row_end, rx:col_end])
    cand = (inner_labels != NODATA_LABEL) & ~_window_contaminated(
        series.scenes[cfg.reference_scene], pixels)
    rng = make_rng(cfg.seed)
    train, holdout = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    class_counts: dict[int, tuple[int, int]] = {}
    for cls in sorted(int(c) for c in np.unique(label_map.labels) if c != NODATA_LABEL):
        flat = np.flatnonzero(cand & (inner_labels == cls))  # row-major interior index
        n_sel = int(np.floor(cfg.train_fraction * flat.size))
        class_counts[cls] = (flat.size, n_sel)
        if flat.size == 0:  # permuting nothing draws nothing
            log.warning("class %d has no eligible training candidates", cls)
        perm = rng.permutation(flat.size)
        train.append(flat[perm[:n_sel]])
        holdout.append(flat[perm[n_sel:]])

    def centres(parts):
        flat = np.concatenate(parts)
        rows, cols = np.divmod(flat, col_end - rx)
        return rows + ry, cols + rx, inner_labels.reshape(-1)[flat].astype(np.int64)

    return centres(train), centres(holdout), class_counts


def extract_training_set(series: SceneSeries, cfg: SamplerConfig,
                         label_map: LabelMap) -> TrainingSet:
    """The training_centres selection as SampleSequence objects."""
    train, holdout, class_counts = training_centres(series, cfg, label_map)

    def collect(rows, cols, labels):
        xs, valid = assemble_windows(series, cfg, rows, cols)
        return [SampleSequence(xs[j], int(labels[j]), (int(rows[j]), int(cols[j])), valid[j])
                for j in range(rows.size)]

    return TrainingSet(train=collect(*train), holdout=collect(*holdout),
                       class_counts=class_counts)


def _model_probabilities(model, xs: np.ndarray) -> np.ndarray:
    """(B, N, D) sample tensor -> (B, K) class probabilities, per model kind."""
    if isinstance(model, recurrent_nets.LstmParams):
        return recurrent_nets.forward_probs(model, xs)
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
    a time (argmax, lowest-id ties). Raises ValueError when the model yields
    a non-finite probability, whose argmax would be a meaningless class (the
    overflow warnings on the way there are silenced; this check reports them)."""
    out = np.empty(xs.shape[0], dtype=np.int64)
    for start in range(0, xs.shape[0], batch_size):
        with np.errstate(over="ignore", invalid="ignore"):
            probs = _model_probabilities(model, xs[start:start + batch_size])
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            raise ValueError(f"model gave non-finite class probabilities for "
                             f"{int(bad.sum())} of {bad.size} samples")
        out[start:start + batch_size] = np.argmax(probs, axis=1)
    return out


def _classify_chunk(series: SceneSeries, cfg: SamplerConfig, model, rows: np.ndarray,
                    cols: np.ndarray, batch_size: int, start: int) -> np.ndarray:
    """Labels of the batch_size centres (rows, cols)[start:start + batch_size],
    as the map's uint8."""
    chunk = slice(start, start + batch_size)
    xs, _ = assemble_windows(series, cfg, rows[chunk], cols[chunk])
    return predict_labels(model, xs, batch_size).astype(np.uint8)


def classify_map(series: SceneSeries, cfg: SamplerConfig, model,
                 batch_size: int = 512) -> LabelMap:
    """Classify every non-boundary pixel; boundary pixels become no-data.

    The interior centres, in row-major order, are classified in chunks of
    batch_size, one task of core_math.map_in_workers each; the workers share
    the series and the model read-only and return their chunk's labels,
    which are written into the map here. The chunks do not depend on the CPU
    count, so neither do the map's bytes."""
    _check_series(series, cfg)
    if model.input_dim != cfg.input_dim:
        raise ShapeError(f"model input_dim {model.input_dim} vs sampler {cfg.input_dim}")
    ry, rx, row_end, col_end = _window_bounds(cfg, series.height, series.width)
    out = np.full((series.height, series.width), NODATA_LABEL, dtype=np.uint8)
    rows, cols = (a.reshape(-1) for a in np.mgrid[ry:row_end, rx:col_end])
    starts = range(0, rows.size, batch_size)
    chunks = map_in_workers(_classify_chunk, (series, cfg, model, rows, cols, batch_size),
                            starts)
    for start, labels in zip(starts, chunks):
        out[rows[start:start + batch_size], cols[start:start + batch_size]] = labels
    return LabelMap(labels=out)


def map_accuracy(classified: LabelMap, reference: LabelMap) -> float:
    """Agreement over pixels valid in both maps."""
    valid = (classified.labels != NODATA_LABEL) & (reference.labels != NODATA_LABEL)
    if not valid.any():
        raise ValueError("no jointly valid pixels")
    return float(np.mean(classified.labels[valid] == reference.labels[valid]))


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


def load_label_map(path, what: str = "label map") -> tuple[LabelMap, list[str]]:
    """The map and its sidecar's class names; what names the map in errors."""
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
    beyond = np.unique(labels[(labels >= len(classes)) & (labels != NODATA_LABEL)])
    if beyond.size:
        raise FormatError(f"{what} class ids {beyond.tolist()} exceed the "
                          f"{len(classes)}-class scheme of {sidecar_path}")
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
