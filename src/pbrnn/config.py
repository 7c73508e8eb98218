"""Flat key=value run configuration for the command-line front end.

The format is one `key = value` pair per line with `#` comments; an unknown
key is a ConfigError. A mode's patch size, sequence length and scenes come
from `experiments.sampler_for_mode`, the rule the experiments use too. This
module checks the input against that rule instead of silently fixing it
(pixel modes reject a patch other than 1x1, single- and multi-date modes a
`seq_len` other than their date count, multi-date modes anything but four
fusion dates) and applies the overrides the format allows: the selection
fraction, the patch size of patch modes and the masking rule. Only the keys a
config sets reach `SamplerConfig`, `TrainConfig` and `RunConfig`, so every
default and range check is the dataclass field's. `compare-all` reads the keys
that name `ExperimentSettings` fields the same way, after the same checks. A
`synth --spec` file's keys are `SyntheticSpec`'s fields, each parsed as its
field's type. A key set twice is a ConfigError.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .experiments import ExperimentSettings, RunConfig, sampler_for_mode
from .optimizer import TrainConfig
from .sampling import SamplerConfig
from .synthetic import SyntheticSpec


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"missing config file {path}")
    pairs: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line "
                              f"{set_on[key]}")
        set_on[key] = lineno
        pairs[key] = value
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


_KINDS = (dict.fromkeys(("patch_x", "patch_y", "bands", "seq_len", "reference_scene",
                         "sampler_seed", "batch_size", "epochs", "shuffle_seed", "log_every",
                         "hidden_dim", "init_seed", "max_train_per_class"), int)
          | dict.fromkeys(("train_fraction", "learning_rate"), float)
          | dict.fromkeys(("train_biases", "zero_whole_patch"), bool)
          | dict.fromkeys(("mode", "series_manifest", "label_map", "output_dir",
                           "ffn_activation", "fusion_dates"), str))


def run_config_from_file(path) -> RunConfig:
    return run_config_from_pairs(parse_kv_file(path), base_dir=Path(path).parent)


def run_config_from_pairs(pairs: dict[str, str], base_dir: Path | None = None) -> RunConfig:
    unknown = pairs.keys() - _KINDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(map(repr, sorted(unknown)))}")
    values = {key: _convert(key, raw, _KINDS[key]) for key, raw in pairs.items()}

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

    def given(*keys, **renamed):
        """{field: value} for the keys the config sets; renamed maps field=key."""
        names = {key: key for key in keys} | renamed
        return {name: values[key] for name, key in names.items() if key in values}

    fusion_dates: tuple[int, ...] = ()
    if "fusion_dates" in values:
        try:
            fusion_dates = tuple(int(v.strip()) for v in str(values["fusion_dates"]).split(","))
        except ValueError as exc:
            raise ConfigError("config field 'fusion_dates': expected comma-separated "
                              "scene indices") from exc

    requested = SamplerConfig(**given("seq_len", "bands", "reference_scene", seed="sampler_seed"))
    sampler = sampler_for_mode(mode, seq_len=requested.seq_len, bands=requested.bands,
                               reference_scene=requested.reference_scene,
                               fusion_dates=fusion_dates, seed=requested.seed)
    if "seq_len" in values and requested.seq_len != sampler.seq_len:
        raise ConfigError(f"config field 'seq_len': mode {mode} reads {sampler.seq_len} "
                          "date(s)")
    for key in ("patch_x", "patch_y"):
        if mode.startswith("pixel") and values.get(key, 1) != 1:
            raise ConfigError(f"config field {key!r}: pixel modes require a 1x1 patch")
    sampler = replace(sampler, **given("train_fraction", "patch_x", "patch_y", "zero_whole_patch"))
    return RunConfig(
        mode=mode,
        sampler=sampler,
        train=TrainConfig(**given("batch_size", "epochs", "shuffle_seed", "log_every",
                                  "learning_rate")),
        fusion_dates=fusion_dates,
        series_manifest=resolve("series_manifest"),
        label_map=resolve("label_map"),
        output_dir=resolve("output_dir"),
        **given("hidden_dim", "init_seed", "ffn_activation", "train_biases",
                "max_train_per_class"),
    )


def experiment_settings_from_pairs(pairs: dict[str, str]) -> ExperimentSettings:
    """ExperimentSettings from the config keys that name its fields; the others
    keep their defaults. Check the pairs with run_config_from_pairs first."""
    return ExperimentSettings(**{f.name: _convert(f.name, pairs[f.name], _KINDS[f.name])
                                 for f in fields(ExperimentSettings) if f.name in pairs})


def synthetic_spec_from_pairs(pairs: dict[str, str]) -> SyntheticSpec:
    """SyntheticSpec from a spec file's pairs; each key is a field, parsed as
    that field's type."""
    kinds = get_type_hints(SyntheticSpec)
    unknown = pairs.keys() - kinds
    if unknown:
        raise ConfigError(f"unknown synthetic spec field(s): {', '.join(sorted(unknown))}")
    return SyntheticSpec(**{key: _convert(key, raw, kinds[key]) for key, raw in pairs.items()})
