"""Flat key=value run configuration for the command-line front end.

The format is one `key = value` pair per line with `#` comments; keys are
documented on RunConfig. Mode constraints are enforced rather than silently
fixed: pixel modes require a 1x1 patch, single-image modes a one-date
sequence pinned to the reference scene, multi-image modes exactly four fusion
dates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import MODES, MULTI_MODES, RNN_MODES, SINGLE_MODES
from .errors import ConfigError
from .optimizer import DEFAULT_LEARNING_RATE, TrainConfig
from .sampling import SamplerConfig


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"missing config file {path}")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _convert(key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config field {key!r}: cannot parse {raw!r}") from exc


@dataclass
class RunConfig:
    """One training/classification run: mode, data paths, sampler and trainer."""

    mode: str
    series_manifest: Path
    label_map: Path
    output_dir: Path
    sampler: SamplerConfig
    train: TrainConfig              # batching, seeds and the ADAM constants
    hidden_dim: int = 128
    init_seed: int = 0
    ffn_activation: str = "sigmoid"
    train_biases: bool = True
    forget_bias: float = 0.0
    fusion_dates: tuple[int, ...] = field(default_factory=tuple)
    max_train_per_class: int = 0  # 0 = use every selected sample


_INT_KEYS = {"patch_x", "patch_y", "bands", "seq_len", "reference_scene", "sampler_seed",
             "batch_size", "epochs", "shuffle_seed", "log_every", "hidden_dim",
             "init_seed", "max_train_per_class"}
_FLOAT_KEYS = {"train_fraction", "holdout_fraction", "learning_rate", "beta1", "beta2",
               "epsilon", "forget_bias"}
_BOOL_KEYS = {"train_biases", "zero_whole_patch"}
_STR_KEYS = {"mode", "series_manifest", "label_map", "output_dir", "ffn_activation",
             "fusion_dates"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS


def run_config_from_file(path) -> RunConfig:
    return run_config_from_pairs(parse_kv_file(path), base_dir=Path(path).parent)


def run_config_from_pairs(pairs: dict[str, str], base_dir: Path | None = None) -> RunConfig:
    unknown = set(pairs) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    values: dict[str, object] = {}
    for key, raw in pairs.items():
        if key in _INT_KEYS:
            values[key] = _convert(key, raw, int)
        elif key in _FLOAT_KEYS:
            values[key] = _convert(key, raw, float)
        elif key in _BOOL_KEYS:
            values[key] = _convert(key, raw, bool)
        else:
            values[key] = raw

    mode = values.get("mode")
    if mode is None:
        raise ConfigError("config field 'mode' is required")
    if mode not in MODES:
        raise ConfigError(f"config field 'mode': {mode!r} is not one of {', '.join(MODES)}")
    for key in ("series_manifest", "label_map", "output_dir"):
        if key not in values:
            raise ConfigError(f"config field {key!r} is required")

    base = base_dir or Path(".")

    def resolve(key):
        p = Path(str(values[key]))
        return p if p.is_absolute() else base / p

    pixel_mode = mode.startswith("pixel")
    for key in ("patch_x", "patch_y"):
        if pixel_mode and values.get(key, 1) != 1:
            raise ConfigError(f"config field {key!r}: pixel modes require a 1x1 patch")
    patch_x = int(values.get("patch_x", 1 if pixel_mode else 3))
    patch_y = int(values.get("patch_y", 1 if pixel_mode else 3))
    reference_scene = int(values.get("reference_scene", 0))

    fusion_dates: tuple[int, ...] = ()
    if "fusion_dates" in values:
        try:
            fusion_dates = tuple(int(v.strip()) for v in str(values["fusion_dates"]).split(","))
        except ValueError as exc:
            raise ConfigError("config field 'fusion_dates': expected comma-separated "
                              "scene indices") from exc

    if mode in SINGLE_MODES:
        if values.get("seq_len", 1) != 1:
            raise ConfigError("config field 'seq_len': single-image modes require seq_len = 1")
        seq_len = 1
        scene_indices: tuple[int, ...] | None = (reference_scene,)
    elif mode in MULTI_MODES:
        if not fusion_dates:
            raise ConfigError("config field 'fusion_dates' is required for multi-image modes")
        if len(fusion_dates) != 4:
            raise ConfigError("config field 'fusion_dates': exactly four dates are fused")
        if values.get("seq_len", len(fusion_dates)) != len(fusion_dates):
            raise ConfigError("config field 'seq_len': multi-image modes derive it from "
                              "fusion_dates")
        seq_len = len(fusion_dates)
        scene_indices = fusion_dates
    else:
        assert mode in RNN_MODES
        seq_len = int(values.get("seq_len", 23))
        scene_indices = None

    sampler = SamplerConfig(
        patch_x=patch_x, patch_y=patch_y,
        bands=int(values.get("bands", 8)),
        seq_len=seq_len,
        reference_scene=reference_scene,
        train_fraction=float(values.get("train_fraction", 0.8)),
        seed=int(values.get("sampler_seed", 0)),
        scene_indices=scene_indices,
        zero_whole_patch=bool(values.get("zero_whole_patch", True)),
    )
    train = TrainConfig(
        batch_size=int(values.get("batch_size", 64)),
        epochs=int(values.get("epochs", 30)),
        shuffle_seed=int(values.get("shuffle_seed", 0)),
        holdout_fraction=float(values.get("holdout_fraction", 0.0)),
        log_every=int(values.get("log_every", 10)),
        learning_rate=float(values.get("learning_rate", DEFAULT_LEARNING_RATE)),
        beta1=float(values.get("beta1", 0.9)),
        beta2=float(values.get("beta2", 0.999)),
        epsilon=float(values.get("epsilon", 1e-8)),
    )
    if train.batch_size < 1:
        raise ConfigError("config field 'batch_size' must be >= 1")
    if train.epochs < 1:
        raise ConfigError("config field 'epochs' must be >= 1")
    activation = str(values.get("ffn_activation", "sigmoid"))
    if activation not in ("sigmoid", "tanh"):
        raise ConfigError("config field 'ffn_activation' must be sigmoid or tanh")
    hidden = int(values.get("hidden_dim", 128))
    if hidden < 1:
        raise ConfigError("config field 'hidden_dim' must be >= 1")
    if train.learning_rate <= 0:
        raise ConfigError("config field 'learning_rate' must be positive")
    return RunConfig(
        mode=mode,
        series_manifest=resolve("series_manifest"),
        label_map=resolve("label_map"),
        output_dir=resolve("output_dir"),
        sampler=sampler,
        train=train,
        hidden_dim=hidden,
        init_seed=int(values.get("init_seed", 0)),
        ffn_activation=activation,
        train_biases=bool(values.get("train_biases", True)),
        forget_bias=float(values.get("forget_bias", 0.0)),
        fusion_dates=fusion_dates,
        max_train_per_class=int(values.get("max_train_per_class", 0)),
    )


_SYNTH_INT_KEYS = {"width", "height", "num_classes", "seq_len", "bands",
                   "region_blob_scale", "seed", "confusable_at"}
_SYNTH_FLOAT_KEYS = {"noise_sigma", "cloud_fraction", "pair_amplitude", "level_amplitude"}


def synthetic_spec_from_pairs(pairs: dict[str, str]):
    from .synthetic import SyntheticSpec

    unknown = set(pairs) - _SYNTH_INT_KEYS - _SYNTH_FLOAT_KEYS
    if unknown:
        raise ConfigError(f"unknown synthetic spec field(s): {', '.join(sorted(unknown))}")
    kwargs: dict[str, object] = {}
    for key, raw in pairs.items():
        kind = int if key in _SYNTH_INT_KEYS else float
        kwargs[key] = _convert(key, raw, kind)
    return SyntheticSpec(**kwargs)
