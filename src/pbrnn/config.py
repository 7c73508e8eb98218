"""Flat key=value run configuration for the command-line front end.

The format is one `key = value` pair per line with `#` comments; an unknown
key is a ConfigError. A mode's patch size, sequence length and scenes come
from `experiments.sampler_for_mode`, the rule the experiments use too. This
module checks the input against that rule instead of silently fixing it
(pixel modes reject a patch other than 1x1, single- and multi-date modes a
`seq_len` other than their date count, multi-date modes anything but four
fusion dates) and applies the overrides the format allows: the patch size of
patch modes and the masking rule.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .experiments import RunConfig, sampler_for_mode
from .optimizer import DEFAULT_LEARNING_RATE, TrainConfig


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


_INT_KEYS = {"patch_x", "patch_y", "bands", "seq_len", "reference_scene", "sampler_seed",
             "batch_size", "epochs", "shuffle_seed", "log_every", "hidden_dim",
             "init_seed", "max_train_per_class"}
_FLOAT_KEYS = {"train_fraction", "holdout_fraction", "learning_rate"}
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
    for key in ("series_manifest", "label_map", "output_dir"):
        if key not in values:
            raise ConfigError(f"config field {key!r} is required")

    base = base_dir or Path(".")

    def resolve(key):
        p = Path(str(values[key]))
        return p if p.is_absolute() else base / p

    fusion_dates: tuple[int, ...] = ()
    if "fusion_dates" in values:
        try:
            fusion_dates = tuple(int(v.strip()) for v in str(values["fusion_dates"]).split(","))
        except ValueError as exc:
            raise ConfigError("config field 'fusion_dates': expected comma-separated "
                              "scene indices") from exc

    sampler = sampler_for_mode(
        mode, seq_len=values.get("seq_len", 23), bands=values.get("bands", 8),
        reference_scene=values.get("reference_scene", 0), fusion_dates=fusion_dates,
        seed=values.get("sampler_seed", 0), train_fraction=values.get("train_fraction", 0.8))
    if values.get("seq_len", sampler.seq_len) != sampler.seq_len:
        raise ConfigError(f"config field 'seq_len': mode {mode} reads {sampler.seq_len} "
                          "date(s)")
    for key in ("patch_x", "patch_y"):
        if mode.startswith("pixel") and values.get(key, 1) != 1:
            raise ConfigError(f"config field {key!r}: pixel modes require a 1x1 patch")
    sampler = replace(sampler, **{key: values[key] for key in
                                  ("patch_x", "patch_y", "zero_whole_patch") if key in values})
    train = TrainConfig(
        batch_size=int(values.get("batch_size", 64)),
        epochs=int(values.get("epochs", 30)),
        shuffle_seed=int(values.get("shuffle_seed", 0)),
        holdout_fraction=float(values.get("holdout_fraction", 0.0)),
        log_every=int(values.get("log_every", 10)),
        learning_rate=float(values.get("learning_rate", DEFAULT_LEARNING_RATE)),
    )
    if train.batch_size < 1:
        raise ConfigError("config field 'batch_size' must be >= 1")
    if train.epochs < 1:
        raise ConfigError("config field 'epochs' must be >= 1")
    if not 0.0 <= train.holdout_fraction < 1.0:
        raise ConfigError("config field 'holdout_fraction' must be in [0, 1)")
    if train.log_every < 0:
        raise ConfigError("config field 'log_every' must be >= 0 (0 = never)")
    activation = str(values.get("ffn_activation", "sigmoid"))
    if activation not in ("sigmoid", "tanh"):
        raise ConfigError("config field 'ffn_activation' must be sigmoid or tanh")
    hidden = int(values.get("hidden_dim", 128))
    if hidden < 1:
        raise ConfigError("config field 'hidden_dim' must be >= 1")
    if not (math.isfinite(train.learning_rate) and train.learning_rate > 0):
        raise ConfigError("config field 'learning_rate' must be finite and positive")
    max_train_per_class = int(values.get("max_train_per_class", 0))
    if max_train_per_class < 0:
        raise ConfigError("config field 'max_train_per_class' must be >= 0 (0 = no cap)")
    return RunConfig(
        mode=mode,
        sampler=sampler,
        train=train,
        hidden_dim=hidden,
        init_seed=int(values.get("init_seed", 0)),
        ffn_activation=activation,
        train_biases=bool(values.get("train_biases", True)),
        fusion_dates=fusion_dates,
        max_train_per_class=max_train_per_class,
        series_manifest=resolve("series_manifest"),
        label_map=resolve("label_map"),
        output_dir=resolve("output_dir"),
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
